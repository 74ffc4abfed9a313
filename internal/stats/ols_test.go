package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// leastSquares solves min ||X b - y||₂ through the Householder QR path
// OLS fits with.
func leastSquares(x *Matrix, y []float64) ([]float64, error) {
	f, err := factorQR(x)
	if err != nil {
		return nil, err
	}
	qty := slices.Clone(y)
	f.applyQT(qty)
	return f.solveR(qty)
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 3 + 2x fits exactly.
	x := NewMatrix(4, 2)
	xs := []float64{0, 1, 2, 3}
	y := make([]float64, 4)
	for i, v := range xs {
		x.Set(i, 0, 1)
		x.Set(i, 1, v)
		y[i] = 3 + 2*v
	}
	b, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b[0], 3, 1e-10) || !almostEq(b[1], 2, 1e-10) {
		t.Errorf("b = %v", b)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Classic: fit mean. X = column of ones; solution is the mean of y.
	x := NewMatrix(5, 1)
	for i := 0; i < 5; i++ {
		x.Set(i, 0, 1)
	}
	y := []float64{1, 2, 3, 4, 10}
	b, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b[0], 4, 1e-12) {
		t.Errorf("b = %v, want mean 4", b)
	}
}

func TestLeastSquaresRankDeficient(t *testing.T) {
	x := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, 2) // column 2 = 2 * column 1 → rank deficient
	}
	if _, err := leastSquares(x, []float64{1, 2, 3, 4}); err == nil {
		t.Error("expected rank-deficiency error")
	}
}

func TestQRReproducesKnownRegression(t *testing.T) {
	// Hand-checked small regression: y on x1, x2.
	// Data chosen so normal equations are easy to verify externally.
	xs1 := []float64{1, 2, 3, 4, 5, 6}
	xs2 := []float64{1, 1, 2, 2, 3, 3}
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9}
	x := NewMatrix(6, 3)
	for i := range xs1 {
		x.Set(i, 0, 1)
		x.Set(i, 1, xs1[i])
		x.Set(i, 2, xs2[i])
	}
	b, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Residuals must be orthogonal to every column (normal equations).
	for j := 0; j < 3; j++ {
		var dot float64
		for i := 0; i < 6; i++ {
			pred := b[0]*x.At(i, 0) + b[1]*x.At(i, 1) + b[2]*x.At(i, 2)
			dot += x.At(i, j) * (y[i] - pred)
		}
		if !almostEq(dot, 0, 1e-9) {
			t.Errorf("residual not orthogonal to column %d: %v", j, dot)
		}
	}
}

func TestOLSInferenceAgainstR(t *testing.T) {
	// Reference fit derived by hand from the normal equations:
	//   x = 1..10 → x̄ = 5.5, Sxx = 82.5
	//   y = 1.2,1.9,3.1,3.9,5.2,5.8,7.1,8.2,8.9,10.1 → ȳ = 5.54, Sxy = 82.40
	// slope = Sxy/Sxx = 0.99878788, intercept = ȳ - slope·x̄ = 0.04666667.
	// Inference values (se, t, σ, adj R²) cross-checked for internal
	// consistency: se(slope) = σ/√Sxx, t = slope/se.
	xv := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	yv := []float64{1.2, 1.9, 3.1, 3.9, 5.2, 5.8, 7.1, 8.2, 8.9, 10.1}
	b := NewDesignBuilder()
	b.AddNumeric("x")
	for i := range xv {
		b.AddRow(yv[i], xv[i])
	}
	res, err := b.Fit()
	if err != nil {
		t.Fatal(err)
	}
	ic := res.Coef("(intercept)")
	xc := res.Coef("x")
	if ic == nil || xc == nil {
		t.Fatal("missing coefficients")
	}
	if !almostEq(ic.Estimate, 0.04666667, 1e-6) {
		t.Errorf("intercept = %v", ic.Estimate)
	}
	if !almostEq(xc.Estimate, 0.99878788, 1e-6) {
		t.Errorf("slope = %v", xc.Estimate)
	}
	// Internal consistency of the inference quantities.
	if !almostEq(xc.StdErr, res.Sigma/math.Sqrt(82.5), 1e-9) {
		t.Errorf("slope se = %v, want σ/√Sxx = %v", xc.StdErr, res.Sigma/math.Sqrt(82.5))
	}
	if !almostEq(xc.TValue, xc.Estimate/xc.StdErr, 1e-9) {
		t.Errorf("slope t = %v", xc.TValue)
	}
	if !almostEq(res.AdjR2, 1-(res.RSS/8)/(res.TSS/9), 1e-12) {
		t.Errorf("adj R² = %v", res.AdjR2)
	}
	if res.AdjR2 < 0.99 {
		t.Errorf("adj R² = %v, want > 0.99 for near-linear data", res.AdjR2)
	}
	if !xc.Significant(0.001) {
		t.Error("slope should be significant at 0.001")
	}
	if ic.Significant(0.001) {
		t.Error("intercept should not be significant at 0.001")
	}
	if df := res.N - res.P; df != 8 {
		t.Errorf("df = %d", df)
	}
}

func TestOLSWithDummies(t *testing.T) {
	// Three groups with means 1, 3, 6; dummy coding against baseline A.
	b := NewDesignBuilder()
	b.AddDummies("B", "C")
	groups := []struct {
		mean   float64
		dummyB float64
		dummyC float64
	}{{1, 0, 0}, {3, 1, 0}, {6, 0, 1}}
	rng := rand.New(rand.NewSource(3))
	for _, g := range groups {
		for i := 0; i < 40; i++ {
			b.AddRow(g.mean+0.01*rng.NormFloat64(), g.dummyB, g.dummyC)
		}
	}
	res, err := b.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Coef("(intercept)").Estimate, 1, 0.01) {
		t.Errorf("baseline = %v", res.Coef("(intercept)").Estimate)
	}
	if !almostEq(res.Coef("B").Estimate, 2, 0.01) {
		t.Errorf("B = %v", res.Coef("B").Estimate)
	}
	if !almostEq(res.Coef("C").Estimate, 5, 0.01) {
		t.Errorf("C = %v", res.Coef("C").Estimate)
	}
	if !res.Coef("B").Significant(0.001) || !res.Coef("C").Significant(0.001) {
		t.Error("group effects should be significant")
	}
}

func TestOLSRecoversCoefficientsProperty(t *testing.T) {
	// Property: with noiseless data OLS recovers the generating
	// coefficients for random well-conditioned designs.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(30)
		p := 2 + rng.Intn(4)
		truth := make([]float64, p+1)
		for i := range truth {
			truth[i] = rng.NormFloat64() * 3
		}
		b := NewDesignBuilder()
		names := make([]string, p)
		for j := 0; j < p; j++ {
			names[j] = string(rune('a' + j))
		}
		for j := range names {
			b.AddNumeric(names[j])
		}
		for i := 0; i < n; i++ {
			row := make([]float64, p)
			y := truth[0]
			for j := 0; j < p; j++ {
				row[j] = rng.NormFloat64()
				y += truth[j+1] * row[j]
			}
			b.AddRow(y, row...)
		}
		res, err := b.Fit()
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range res.Coefficients {
			if !almostEq(c.Estimate, truth[j], 1e-7) {
				t.Fatalf("trial %d coef %d = %v, want %v", trial, j, c.Estimate, truth[j])
			}
		}
		if res.R2 < 1-1e-9 {
			t.Fatalf("noiseless R² = %v", res.R2)
		}
	}
}

func TestOLSErrors(t *testing.T) {
	x := NewMatrix(2, 3)
	if _, err := OLS(x, []float64{1, 2}, []string{"a", "b", "c"}); err == nil {
		t.Error("n <= p should error")
	}
	x2 := NewMatrix(5, 2)
	if _, err := OLS(x2, []float64{1, 2, 3, 4, 5}, []string{"a"}); err == nil {
		t.Error("names mismatch should error")
	}
}

func TestDesignBuilderPanics(t *testing.T) {
	b := NewDesignBuilder()
	b.AddNumeric("x")
	b.AddRow(1, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("adding columns after rows should panic")
			}
		}()
		b.AddNumeric("late")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("wrong row width should panic")
			}
		}()
		b.AddRow(1, 2, 3)
	}()
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone should not alias")
	}
	if len(m.String()) == 0 {
		t.Error("String should render")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative dims should panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestOLSHandlesNaNFreeSigma(t *testing.T) {
	// Perfect fit: sigma 0, standard errors 0, t-values NaN — must not panic.
	b := NewDesignBuilder()
	b.AddNumeric("x")
	for i := 0; i < 5; i++ {
		b.AddRow(float64(2*i), float64(i))
	}
	res, err := b.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Coef("x").Estimate, 2, 1e-10) {
		t.Errorf("slope = %v", res.Coef("x").Estimate)
	}
	if !math.IsNaN(res.Coef("x").TValue) && res.Coef("x").StdErr != 0 {
		t.Log("t-value defined, se nonzero — acceptable if tiny")
	}
}
