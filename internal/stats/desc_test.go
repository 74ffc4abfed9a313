package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{0.5, 0.5, 0.5, 0.5}, 0.5},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVariance(t *testing.T) {
	// Known: sample variance of 2,4,4,4,5,5,7,9 is 4.571428...
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if Min(xs) != -2 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := Median([]float64{1, 3, 2}); got != 2 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median even = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := Quantile(xs, 0.25); got != 20 {
		t.Errorf("Q25 = %v, want 20", got)
	}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("Q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 50 {
		t.Errorf("Q1 = %v", got)
	}
	// Quantile must not modify its input.
	orig := []float64{5, 1, 4}
	Quantile(orig, 0.5)
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 4 {
		t.Error("Quantile modified its input")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	out := MinMaxNormalize([]float64{2, 4, 6})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Errorf("normalize[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// Constant input maps to zeros.
	for _, v := range MinMaxNormalize([]float64{3, 3, 3}) {
		if v != 0 {
			t.Error("constant input should normalize to 0")
		}
	}
}

func TestMinMaxNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Clamp magnitudes so span arithmetic stays exact enough.
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) < 2 {
			return true
		}
		out := MinMaxNormalize(xs)
		for _, v := range out {
			if v < -1e-9 || v > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStandardize(t *testing.T) {
	out := Standardize([]float64{1, 2, 3, 4, 5})
	if !almostEq(Mean(out), 0, 1e-12) {
		t.Errorf("standardized mean = %v", Mean(out))
	}
	if !almostEq(StdDev(out), 1, 1e-12) {
		t.Errorf("standardized sd = %v", StdDev(out))
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, %v", r, err)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson negative = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("n<2 should error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance should error")
	}
}

func TestPearsonRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			continue
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			t.Fatalf("Pearson out of range: %v", r)
		}
	}
}

func TestMeanCI95(t *testing.T) {
	// 95% CI of a known sample: n=4, mean=2.5, sd=~1.29, t(3,0.975)=3.1824.
	xs := []float64{1, 2, 3, 4}
	ci := MeanCI95(xs)
	if !almostEq(ci.Mean, 2.5, 1e-12) {
		t.Errorf("mean = %v", ci.Mean)
	}
	wantHalf := 3.182446305 * StdDev(xs) / 2
	if !almostEq(ci.Half, wantHalf, 1e-6) {
		t.Errorf("half = %v, want %v", ci.Half, wantHalf)
	}
	if !almostEq(ci.Lo(), ci.Mean-ci.Half, 1e-12) || !almostEq(ci.Hi(), ci.Mean+ci.Half, 1e-12) {
		t.Error("Lo/Hi inconsistent")
	}
}

func TestMeanCISingleton(t *testing.T) {
	ci := MeanCI95([]float64{7})
	if ci.Mean != 7 || ci.Half != 0 {
		t.Errorf("singleton CI = %+v", ci)
	}
}

func TestMeanCICoverageProperty(t *testing.T) {
	// Empirical coverage of the 95% CI over normal samples should be
	// near 95%: a sanity check on TQuantile's integration with MeanCI.
	rng := rand.New(rand.NewSource(42))
	const trials = 400
	covered := 0
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = 5 + 2*rng.NormFloat64()
		}
		ci := MeanCI95(xs)
		if ci.Lo() <= 5 && 5 <= ci.Hi() {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Errorf("95%% CI coverage = %v, want ≈0.95", frac)
	}
}

func TestSumEmpty(t *testing.T) {
	if Sum(nil) != 0 {
		t.Error("Sum(nil) != 0")
	}
}

func TestStandardizeDegenerate(t *testing.T) {
	for _, v := range Standardize([]float64{2, 2, 2}) {
		if v != 0 {
			t.Error("constant standardize should be 0")
		}
	}
}
