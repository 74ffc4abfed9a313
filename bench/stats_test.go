package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		name string
	}{
		{1000, 990, "p99.0"},
		{100, 90, "p90.0"},
		{11, 1, "p9.1"}, // exactly ten beyond the smallest
		{10, 10, "max(n=10)"},
		{3, 3, "max(n=3)"},
	} {
		got, name := tail(seq(tc.n))
		if got != tc.want || name != tc.name {
			t.Errorf("tail of 1..%d = %v %q, want %v %q", tc.n, got, name, tc.want, tc.name)
		}
		beyond := 0
		for _, v := range seq(tc.n) {
			if v > got {
				beyond++
			}
		}
		if tc.n > tailBeyond && beyond != tailBeyond {
			t.Errorf("tail of 1..%d leaves %d samples beyond, want %d", tc.n, beyond, tailBeyond)
		}
	}
	if v, name := tail(nil); v != 0 || name != "max(n=0)" {
		t.Errorf("tail of nothing = %v %q", v, name)
	}
}

// Values from Python: statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestCompareRuns(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * by
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, lower, verdictUnchanged},
		{"slower latency", steady, shift(1.2), lower, verdictRegressed},
		{"faster latency", steady, shift(0.8), lower, verdictImproved},
		{"lower throughput", steady, shift(0.8), higher, verdictRegressed},
		{"higher throughput", steady, shift(1.2), higher, verdictImproved},
		{"inside the bound", steady, shift(1.05), lower, verdictUnchanged},
		{"spread wider than the bound", noisy, noisy, lower, verdictUnresolved},
		{"wide spread but every run better", noisy, shift(0.5), lower, verdictImproved},
		{"one side missing", steady, nil, lower, verdictUnresolved},
	} {
		if got := compareRuns(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
