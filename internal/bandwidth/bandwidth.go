// Package bandwidth models the upload-capacity distribution used to
// initialise peers in every experiment.
//
// The paper initialises peers "using the bandwidth distribution provided
// by Piatek et al." (NSDI'07), a measured distribution of BitTorrent
// peers' upload capacities. We do not have the raw trace, so this
// package ships a synthetic piecewise-linear empirical CDF with the
// published shape: heavy-tailed, a median around 50 KB/s, a slow 10th
// percentile around 10 KB/s, and a 99th percentile in the multi-MB/s
// range. Only the heterogeneity — the existence of distinct slow and
// fast bandwidth classes with a long tail — drives the paper's dynamics
// (class-based reciprocation, opportunity cost), so this substitution
// preserves the relevant behaviour. See DESIGN.md.
//
// All capacities are in KiB/s to match the paper's units (the seeder in
// Section 5 uploads at 128 KBps).
package bandwidth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Point is one knot of an empirical CDF: P(X <= KBps) = Q.
type Point struct {
	Q    float64 // cumulative probability in [0,1]
	KBps float64 // upload capacity in KiB/s
}

// Distribution is a piecewise-linear inverse-CDF sampler over upload
// capacities. The zero value is unusable; use Piatek or New.
type Distribution struct {
	points []Point
}

// Piatek returns the default distribution, a synthetic stand-in for the
// measured BitTorrent upload-capacity distribution of Piatek et al.
// (NSDI'07) used by the paper: mostly cable/DSL-class uploaders with a
// long heavy tail of high-capacity peers. Every call returns the same
// value: a Distribution has no mutators, so it is built once and shared,
// also between goroutines.
func Piatek() *Distribution { return piatek }

var piatek = func() *Distribution {
	d, err := New([]Point{
		{0.00, 4},
		{0.10, 10},
		{0.25, 24},
		{0.50, 50},
		{0.75, 110},
		{0.90, 350},
		{0.95, 800},
		{0.99, 5000},
		{1.00, 10000},
	})
	if err != nil {
		panic("bandwidth: invalid built-in distribution: " + err.Error())
	}
	return d
}()

// New builds a distribution from CDF knots. Knots must be sorted by Q,
// start at Q=0, end at Q=1, and have finite, non-negative,
// non-decreasing capacities. Every violation gets its own error naming
// the offending knot — NaN included: a NaN Q would sail through plain
// ordering comparisons (every comparison with NaN is false) and
// corrupt sampling silently, so it is rejected explicitly.
func New(points []Point) (*Distribution, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("bandwidth: need at least 2 points, got %d", len(points))
	}
	for i, p := range points {
		if math.IsNaN(p.Q) || p.Q < 0 || p.Q > 1 {
			return nil, fmt.Errorf("bandwidth: knot %d has Q=%v, want a value in [0,1]", i, p.Q)
		}
		if math.IsNaN(p.KBps) || math.IsInf(p.KBps, 0) || p.KBps < 0 {
			return nil, fmt.Errorf("bandwidth: knot %d has capacity %v KiB/s, want finite and >= 0", i, p.KBps)
		}
	}
	if points[0].Q != 0 || points[len(points)-1].Q != 1 {
		return nil, fmt.Errorf("bandwidth: CDF must span Q=0..1")
	}
	for i := 1; i < len(points); i++ {
		if points[i].Q < points[i-1].Q {
			return nil, fmt.Errorf("bandwidth: Q not sorted at knot %d", i)
		}
		if points[i].KBps < points[i-1].KBps {
			return nil, fmt.Errorf("bandwidth: capacities must be non-decreasing at knot %d", i)
		}
	}
	cp := make([]Point, len(points))
	copy(cp, points)
	return &Distribution{points: cp}, nil
}

// SampleQ returns the capacity at cumulative probability q in [0,1] by
// linear interpolation (the inverse CDF).
func (d *Distribution) SampleQ(q float64) float64 {
	pts := d.points
	if q <= 0 {
		return pts[0].KBps
	}
	if q >= 1 {
		return pts[len(pts)-1].KBps
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Q >= q })
	if i == 0 {
		return pts[0].KBps
	}
	a, b := pts[i-1], pts[i]
	if b.Q == a.Q {
		return b.KBps
	}
	frac := (q - a.Q) / (b.Q - a.Q)
	return a.KBps + float64(frac*(b.KBps-a.KBps))
}

// Sample draws one capacity using rng.
func (d *Distribution) Sample(rng *rand.Rand) float64 {
	return d.SampleQ(rng.Float64())
}

// Stratified returns n capacities spread evenly over the CDF
// (quantiles (i+0.5)/n), giving every run the same representative
// population mix without sampling noise. Experiments use this for
// population initialisation so that encounter outcomes reflect protocol
// differences rather than bandwidth-draw luck.
func (d *Distribution) Stratified(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.SampleQ((float64(i) + 0.5) / float64(n))
	}
	return out
}

// Median returns the distribution's median capacity.
func (d *Distribution) Median() float64 { return d.SampleQ(0.5) }
