package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile (choosing-metrics guide, section 1).
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastest returns the smallest value of xs; 0 for an empty set.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// tail picks the highest percentile of xs that still has at least
// tailBeyond samples beyond it and returns its value and name ("p98.6").
// With fewer than tailBeyond+1 samples no such percentile exists: the
// maximum is returned and the name says so, so a small sample set shows
// up as "max(n=7)" instead of vanishing.
func tail(xs []float64) (value float64, name string) {
	if len(xs) == 0 {
		return 0, "max(n=0)"
	}
	s := sorted(xs)
	n := len(s)
	k := n - 1 - tailBeyond
	if k < 0 {
		return s[n-1], fmt.Sprintf("max(n=%d)", n)
	}
	return s[k], fmt.Sprintf("p%.1f", 100*float64(k+1)/float64(n))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does —
// the rule the driver applies to the ten seeds of a workload.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// worsening is how much worse b reads than a, as a share of a: positive
// means worse in the metric's direction.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// Verdicts of compareRuns.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// compareRuns applies the guide's rule (sections 6 and 8) to the runs
// of a parent (a) and a change (b) for one workload x metric:
//
//   - a run-to-run spread wider than the bound cannot resolve a
//     difference of the bound, so the verdict is unresolved — unless
//     every run of b reads better than every run of a;
//   - otherwise b's median worse than a's by more than the bound is a
//     regression;
//   - an improvement needs b to win at least nine tenths of the pairs
//     and the medians to differ by more than a's own spread.
func compareRuns(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worse := worsening(ma, mb, better)
	wide := max(spread(a), spread(b))
	if wide > bound {
		if allBetter(a, b, better) {
			return verdictImproved
		}
		return verdictUnresolved
	}
	if worse > bound {
		return verdictRegressed
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if worsening(a[i], b[i], better) < 0 {
			wins++
		}
	}
	if -worse > spread(a) && worse < 0 && wins*10 >= pairs*9 {
		return verdictImproved
	}
	return verdictUnchanged
}

func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
