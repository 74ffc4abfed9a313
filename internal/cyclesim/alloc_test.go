//go:build !race

// The race detector's instrumentation allocates, so these exact
// allocation-count pins only run in non-race builds (CI runs both
// modes; the parity suites run under -race as usual).

package cyclesim

// Steady-state allocation pins for the round loop. These are
// in-package (they drive world.step directly); the byte-identity
// parity suite lives in parity_test.go in the external test package,
// because the frozen reference (reference_test.go) imports this
// package's types.

import (
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/design"
	"repro/internal/obs"
)

// TestRoundLoopAllocFree pins the per-round steady state at exactly 0
// allocations, for every ranking function (RandomRank exercises the
// rng.Shuffle closure, Loyal the streak stamps, PropShare the window
// sums) and with churn active (the bandwidth re-draw runs the
// piecewise-CDF inversion). Future perf work must keep this at 0 —
// the PRA tournament runs hundreds of millions of rounds.
func TestRoundLoopAllocFree(t *testing.T) {
	protos := map[string]design.Protocol{
		"bittorrent": design.BitTorrent(),
		"sort-s":     design.SortS(),
		"birds":      design.Birds(),
		"loyal":      design.LoyalWhenNeeded(),
		"propshare":  design.MostRobustCandidate(),
	}
	rr := design.BitTorrent()
	rr.Ranking = design.RandomRank
	protos["random-rank"] = rr

	dist := bandwidth.Piatek()
	for name, p := range protos {
		t.Run(name, func(t *testing.T) {
			w := newWorld(allocSpecs(p, 40), 11)
			// Warm up: let the candidate scratch and history reach
			// steady state before measuring.
			for r := 0; r < 60; r++ {
				w.round = int32(r)
				w.step()
				w.churn(0.05, dist)
			}
			r := w.round + 1
			if avg := testing.AllocsPerRun(300, func() {
				w.round = r
				w.step()
				w.churn(0.05, dist)
				r++
			}); avg != 0 {
				t.Errorf("round loop allocates %v objects/round in steady state, want 0", avg)
			}
		})
	}
}

// TestRoundLoopAllocFreeWithRecorder pins the observability contract
// at its sharpest point: the round loop stays at 0 allocations even
// with a journaling obs recorder live in the process — and even
// journaling a span every round (far finer than production, which
// records at the task level) costs nothing. Tracing a sweep cannot
// regress the PR 5 hot-path guarantees.
func TestRoundLoopAllocFreeWithRecorder(t *testing.T) {
	rec, err := obs.OpenDir(t.TempDir(), "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	dist := bandwidth.Piatek()
	w := newWorld(allocSpecs(design.BitTorrent(), 40), 11)
	round := func() {
		s := rec.Start(0, "round").Int("round", int64(w.round))
		w.step()
		w.churn(0.05, dist)
		s.End()
		w.round++
	}
	for r := 0; r < 60; r++ { // steady state for world and recorder both
		round()
	}
	if avg := testing.AllocsPerRun(300, round); avg != 0 {
		t.Errorf("round loop with live recorder allocates %v objects/round, want 0", avg)
	}
}

// TestPooledRunAllocs pins a whole pooled Run at the Result slices
// only: the world (rng included) must come back from the package's pool
// without reallocation.
func TestPooledRunAllocs(t *testing.T) {
	specs := allocSpecs(design.BitTorrent(), 30)
	opt := Options{Rounds: 40, Seed: 3}
	if _, err := Run(specs, opt); err != nil { // warm the pool
		t.Fatal(err)
	}
	seed := int64(4)
	avg := testing.AllocsPerRun(50, func() {
		opt.Seed = seed
		if _, err := Run(specs, opt); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	// Result{Utility, Spent} are the only per-run allocations.
	if avg > 2 {
		t.Errorf("pooled Run allocates %v objects/run, want <= 2 (the Result slices)", avg)
	}
}
