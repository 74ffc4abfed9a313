package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform CDF).
		{1, 1, 0.3, 0.3},
		{1, 1, 0.9, 0.9},
		// I_x(2,2) = x²(3-2x).
		{2, 2, 0.5, 0.5},
		{2, 2, 0.25, 0.25 * 0.25 * (3 - 0.5)},
		// I_x(0.5,0.5) = (2/π) asin(√x) (arcsine distribution).
		{0.5, 0.5, 0.5, 0.5},
		{0.5, 0.5, 0.25, 2 / math.Pi * math.Asin(0.5)},
	}
	for _, c := range cases {
		if got := RegIncBeta(c.a, c.b, c.x); !almostEq(got, c.want, 1e-10) {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
	if RegIncBeta(2, 3, -0.5) != 0 || RegIncBeta(2, 3, 1.5) != 1 {
		t.Error("out-of-range clamping wrong")
	}
}

func TestRegIncBetaMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := 0.5 + 5*rng.Float64()
		b := 0.5 + 5*rng.Float64()
		prev := 0.0
		for x := 0.0; x <= 1.0001; x += 0.05 {
			v := RegIncBeta(a, b, math.Min(x, 1))
			if v < prev-1e-12 {
				t.Fatalf("I_x(%v,%v) not monotone at x=%v: %v < %v", a, b, x, v, prev)
			}
			prev = v
		}
	}
}

func TestTCDFKnownValues(t *testing.T) {
	// t with df=1 is Cauchy: CDF(1) = 3/4.
	if got := TCDF(1, 1); !almostEq(got, 0.75, 1e-10) {
		t.Errorf("TCDF(1,1) = %v, want 0.75", got)
	}
	if got := TCDF(0, 5); got != 0.5 {
		t.Errorf("TCDF(0,5) = %v, want 0.5", got)
	}
	// Symmetry.
	if got := TCDF(-2, 7) + TCDF(2, 7); !almostEq(got, 1, 1e-12) {
		t.Errorf("symmetry violated: %v", got)
	}
	// Large df approaches the normal distribution.
	if got := TCDF(1.959963985, 1e7); !almostEq(got, 0.975, 1e-4) {
		t.Errorf("TCDF large df = %v, want ~0.975", got)
	}
}

func TestTQuantileRoundTrip(t *testing.T) {
	for _, df := range []float64{1, 2, 5, 10, 30, 100} {
		for _, p := range []float64{0.6, 0.9, 0.95, 0.975, 0.999} {
			q := TQuantile(p, df)
			back := TCDF(q, df)
			if !almostEq(back, p, 1e-8) {
				t.Errorf("df=%v p=%v: TCDF(TQuantile)=%v", df, p, back)
			}
		}
	}
}

func TestTQuantileKnownValues(t *testing.T) {
	// Classic t-table values.
	cases := []struct {
		p, df, want float64
	}{
		{0.975, 3, 3.182446},
		{0.975, 10, 2.228139},
		{0.975, 30, 2.042272},
		{0.995, 5, 4.032143},
	}
	for _, c := range cases {
		if got := TQuantile(c.p, c.df); !almostEq(got, c.want, 1e-4) {
			t.Errorf("TQuantile(%v,%v) = %v, want %v", c.p, c.df, got, c.want)
		}
	}
}

func TestTQuantileSymmetry(t *testing.T) {
	if got := TQuantile(0.025, 9); !almostEq(got, -TQuantile(0.975, 9), 1e-9) {
		t.Errorf("quantile not symmetric: %v", got)
	}
	if TQuantile(0.5, 9) != 0 {
		t.Error("median should be 0")
	}
}

func TestTPValue(t *testing.T) {
	// Huge |t| → p ≈ 0; t=0 → p=1.
	if p := TPValue(0, 10); !almostEq(p, 1, 1e-12) {
		t.Errorf("TPValue(0) = %v", p)
	}
	if p := TPValue(50, 100); p > 1e-10 {
		t.Errorf("TPValue(50) = %v, want ~0", p)
	}
	// Two-sided symmetry.
	if !almostEq(TPValue(2.5, 8), TPValue(-2.5, 8), 1e-14) {
		t.Error("p-value should be symmetric in t")
	}
}
