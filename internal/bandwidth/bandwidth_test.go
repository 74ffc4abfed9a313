package bandwidth

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPiatekShape(t *testing.T) {
	d := Piatek()
	if m := d.Median(); m != 50 {
		t.Errorf("median = %v, want 50", m)
	}
	if q := d.SampleQ(0.10); q != 10 {
		t.Errorf("p10 = %v, want 10", q)
	}
	if q := d.SampleQ(0.99); q != 5000 {
		t.Errorf("p99 = %v, want 5000", q)
	}
	// Heavy tail: mean far above median.
	xs := d.Stratified(10000)
	if mean := stats.Mean(xs); mean < 2*d.Median() {
		t.Errorf("mean %v should exceed 2×median %v (heavy tail)", mean, d.Median())
	}
}

// TestPiatekIsShared pins what lets Piatek hand out one value: calls
// agree knot for knot, and goroutines sampling it concurrently (every
// delivery download and every pra slice does) neither race — this
// package is on CI's -race list — nor disturb the knots.
func TestPiatekIsShared(t *testing.T) {
	a, b := Piatek(), Piatek()
	if len(a.points) != 9 || len(b.points) != len(a.points) {
		t.Fatalf("knots: %d and %d, want 9 and 9", len(a.points), len(b.points))
	}
	before := slices.Clone(a.points)
	for i := range before {
		if b.points[i] != before[i] {
			t.Fatalf("knot %d: %v from one call, %v from the next", i, before[i], b.points[i])
		}
	}
	strat := a.Stratified(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			d := Piatek()
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				if got, want := d.Sample(rng), d.SampleQ(ref.Float64()); got != want {
					t.Errorf("seed %d, draw %d: Sample %v, inverse CDF %v", seed, k, got, want)
					return
				}
			}
			for i, v := range d.Stratified(64) {
				if v != strat[i] {
					t.Errorf("seed %d: Stratified[%d] = %v, want %v", seed, i, v, strat[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for i, p := range Piatek().points {
		if p != before[i] {
			t.Fatalf("knot %d changed under sampling: %v, was %v", i, p, before[i])
		}
	}
}

func TestSampleQInterpolation(t *testing.T) {
	d, err := New([]Point{{0, 0}, {1, 100}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 0}, {0.5, 50}, {1, 100}, {-1, 0}, {2, 100}, {0.25, 25},
	} {
		if got := d.SampleQ(c.q); got != c.want {
			t.Errorf("SampleQ(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		pts  []Point
		want string // substring the error must carry
	}{
		{[]Point{{0, 1}}, "at least 2"},                                 // too few
		{[]Point{{0.1, 1}, {1, 2}}, "span Q=0..1"},                      // doesn't start at 0
		{[]Point{{0, 1}, {0.9, 2}}, "span Q=0..1"},                      // doesn't end at 1
		{[]Point{{0, 1}, {0.6, 2}, {0.5, 3}, {1, 4}}, "not sorted"},     // Q not sorted
		{[]Point{{0, 5}, {1, 2}}, "non-decreasing"},                     // capacity decreasing
		{[]Point{{0, 1}, {math.NaN(), 2}, {1, 3}}, "knot 1"},            // NaN Q: unsortable, must not slip through
		{[]Point{{0, 1}, {1.5, 2}, {1, 3}}, "knot 1"},                   // Q above 1 mid-CDF
		{[]Point{{0, 1}, {-0.5, 2}, {1, 3}}, "knot 1"},                  // negative Q mid-CDF
		{[]Point{{0, 1}, {0.5, math.NaN()}, {1, 3}}, "knot 1"},          // NaN capacity
		{[]Point{{0, 1}, {0.5, math.Inf(1)}, {1, math.Inf(1)}}, "knot"}, // infinite capacity
		{[]Point{{0, -3}, {1, 2}}, "knot 0"},                            // negative capacity
	}
	for i, c := range cases {
		_, err := New(c.pts)
		if err == nil {
			t.Errorf("case %d: expected error", i)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: error %q should contain %q", i, err, c.want)
		}
	}
}

// randomCDF builds a valid random CDF from a seed: sorted Q spanning
// 0..1, finite non-decreasing capacities.
func randomCDF(seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(8)
	pts := make([]Point, n)
	q := 0.0
	kbps := rng.Float64() * 100
	for i := range pts {
		pts[i] = Point{Q: q, KBps: kbps}
		q += rng.Float64()
		kbps += rng.Float64() * 1000
	}
	// Rescale Q onto exactly [0,1].
	span := pts[n-1].Q
	if span == 0 {
		span = 1
	}
	for i := range pts {
		pts[i].Q /= span
	}
	pts[0].Q, pts[n-1].Q = 0, 1
	return pts
}

// TestNewAcceptsValidRejectsMutatedProperty: every randomly generated
// valid CDF is accepted, and a random order-breaking mutation of it is
// rejected — the validator's acceptance region is exactly the
// contract, not a lucky subset of hand-picked cases.
func TestNewAcceptsValidRejectsMutatedProperty(t *testing.T) {
	f := func(seed int64) bool {
		pts := randomCDF(seed)
		if _, err := New(pts); err != nil {
			t.Logf("seed %d: valid CDF rejected: %v", seed, err)
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		mutated := make([]Point, len(pts))
		copy(mutated, pts)
		i := rng.Intn(len(mutated))
		switch rng.Intn(4) {
		case 0:
			mutated[i].Q = math.NaN()
		case 1:
			mutated[i].Q = 1 + rng.Float64() // out of range
		case 2:
			mutated[i].KBps = -1 - rng.Float64()*100
		case 3:
			if i == 0 {
				i = 1
			}
			// Break capacity monotonicity below the previous knot.
			mutated[i].KBps = mutated[i-1].KBps - 1 - rng.Float64()
		}
		if _, err := New(mutated); err == nil {
			t.Logf("seed %d: mutated CDF %v accepted", seed, mutated)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSamplingDeterministicProperty: for any valid CDF and any seed,
// two samplers with equal seeds walk the quantile range identically —
// SampleQ is a pure function and Sample consumes the rng identically. The delivery domain's byte-identity guarantees sit on
// exactly this.
func TestSamplingDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		d, err := New(randomCDF(seed))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Pure inverse-CDF determinism across the quantile range.
		for q := 0.0; q <= 1.0; q += 0.01 {
			if a, b := d.SampleQ(q), d.SampleQ(q); a != b {
				t.Logf("seed %d: SampleQ(%v) unstable: %v vs %v", seed, q, a, b)
				return false
			}
		}
		// rng-driven draws: equal seeds, equal streams.
		ra, rb := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		as := make([]float64, 64)
		for i := range as {
			as[i] = d.Sample(ra)
			if b := d.Sample(rb); as[i] != b {
				t.Logf("seed %d: Sample diverged at draw %d", seed, i)
				return false
			}
		}
		// And the support is respected.
		lo, hi := d.SampleQ(0), d.SampleQ(1)
		for _, v := range as {
			if v < lo || v > hi {
				t.Logf("seed %d: sample %v outside [%v,%v]", seed, v, lo, hi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestUniform: two knots at one capacity make a degenerate distribution,
// every peer at that capacity.
func TestUniform(t *testing.T) {
	d, err := New([]Point{{0, 64}, {1, 64}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if v := d.Sample(rng); v != 64 {
			t.Fatalf("uniform sample = %v", v)
		}
	}
}

// TestTwoClass: a step between two knots a hair either side of 0.5 is
// the two-class world of the paper's Section 2 analysis, half the peers
// slow and half fast.
func TestTwoClass(t *testing.T) {
	eps := 1e-9
	d, err := New([]Point{{0, 10}, {0.5 - eps, 10}, {0.5 + eps, 100}, {1, 100}})
	if err != nil {
		t.Fatal(err)
	}
	xs := d.Stratified(100)
	slow, fast := 0, 0
	for _, x := range xs {
		switch x {
		case 10:
			slow++
		case 100:
			fast++
		default:
			t.Fatalf("unexpected capacity %v", x)
		}
	}
	if slow != 50 || fast != 50 {
		t.Errorf("split = %d/%d, want 50/50", slow, fast)
	}
}

func TestStratifiedIsSortedAndDeterministic(t *testing.T) {
	d := Piatek()
	a := d.Stratified(50)
	b := d.Stratified(50)
	if !sort.Float64sAreSorted(a) {
		t.Error("stratified sample should be sorted")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stratified sampling should be deterministic")
		}
	}
}

func TestSampleWithinSupportProperty(t *testing.T) {
	d := Piatek()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			v := d.Sample(rng)
			if v < 4 || v > 10000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInverseCDFMonotoneProperty(t *testing.T) {
	d := Piatek()
	prev := d.SampleQ(0)
	for q := 0.0; q <= 1.0; q += 0.001 {
		v := d.SampleQ(q)
		if v < prev {
			t.Fatalf("inverse CDF not monotone at q=%v", q)
		}
		prev = v
	}
}
