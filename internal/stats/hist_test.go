package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	xs := []float64{0.05, 0.15, 0.15, 0.95}
	h := NewHistogram(xs, 10, 0, 1)
	if h.N != 4 {
		t.Fatalf("N = %d", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram([]float64{-5, 5, 1}, 4, 0, 1)
	if h.Counts[0] != 1 || h.Counts[3] != 2 {
		t.Errorf("clamped counts = %v", h.Counts)
	}
}

func TestHistogramConservesMass(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(raw, 7, -1000, 1000)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == len(raw) && h.N == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramDegenerateRange(t *testing.T) {
	h := NewHistogram([]float64{1, 2}, 5, 3, 3)
	if h.N != 0 {
		t.Error("degenerate range should bin nothing")
	}
}

func TestHist2D(t *testing.T) {
	h := NewHist2D(10, 10, 0, 1)
	h.Add(3, 0.55)
	h.Add(3, 0.55)
	h.Add(7, 0.55)
	h.Add(99, 0.5) // ignored: category out of range
	h.Add(-1, 0.5) // ignored
	h.Add(5, 1.5)  // clamped into last bin
	h.Add(5, -0.5) // clamped into first bin
	if h.Counts[3][5] != 2 || h.Counts[7][5] != 1 {
		t.Errorf("counts = %v", h.Counts[3])
	}
	if h.Counts[5][9] != 1 || h.Counts[5][0] != 1 {
		t.Error("clamping failed")
	}
	row := h.RowNormalized(5)
	if !almostEq(row[3], 2.0/3.0, 1e-12) || !almostEq(row[7], 1.0/3.0, 1e-12) {
		t.Errorf("row = %v", row)
	}
	// Empty row normalises to zeros.
	for _, v := range h.RowNormalized(1) {
		if v != 0 {
			t.Error("empty row should be zeros")
		}
	}
}

func TestCCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	pts := CCDF(xs)
	want := []CCDFPoint{{1, 0.75}, {2, 0.25}, {3, 0}}
	if len(pts) != len(want) {
		t.Fatalf("pts = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if CCDF(nil) != nil {
		t.Error("empty CCDF should be nil")
	}
}

func TestCCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		pts := CCDF(xs)
		if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) {
			t.Fatal("CCDF x values not sorted")
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].P > pts[i-1].P {
				t.Fatal("CCDF not non-increasing")
			}
		}
		if pts[len(pts)-1].P != 0 {
			t.Fatal("CCDF should reach 0 at the max sample")
		}
		// Agreement with a brute-force count of P(X > x) at every knot.
		for _, p := range pts {
			above := 0
			for _, v := range xs {
				if v > p.X {
					above++
				}
			}
			if !almostEq(float64(above)/float64(n), p.P, 1e-12) {
				t.Fatalf("CCDF disagrees with the count at %v", p.X)
			}
		}
	}
}
