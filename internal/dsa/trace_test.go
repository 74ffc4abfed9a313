package dsa_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// TestTracedExplorersIdentical pins the observation contract on the
// explorer seam: a search with a recorder returns exactly what one
// with nil does — same best point, same call count — and the journal
// carries one restart/generation span per boundary under a single
// "explore" root.
func TestTracedExplorersIdentical(t *testing.T) {
	d := newFakeDomain(t)
	hcfg := core.HillClimbConfig{Restarts: 3, MaxSteps: 20, Seed: 42}
	ecfg := core.EvolveConfig{Population: 6, Generations: 4, Seed: 42}

	hcPlain, hcCalls, err := dsa.HillClimb(d, fakeWeights(), fakeCfg(), hcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	evPlain, evCalls, err := dsa.Evolve(d, fakeWeights(), fakeCfg(), ecfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rec, err := obs.OpenDir(dir, "explorer")
	if err != nil {
		t.Fatal(err)
	}
	hcTraced, hcTracedCalls, err := dsa.HillClimb(d, fakeWeights(), fakeCfg(), hcfg, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	evTraced, evTracedCalls, err := dsa.Evolve(d, fakeWeights(), fakeCfg(), ecfg, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(hcTraced, hcPlain) || hcTracedCalls != hcCalls {
		t.Errorf("traced HillClimb diverged: %+v/%d vs %+v/%d", hcTraced, hcTracedCalls, hcPlain, hcCalls)
	}
	if !reflect.DeepEqual(evTraced, evPlain) || evTracedCalls != evCalls {
		t.Errorf("traced Evolve diverged: %+v/%d vs %+v/%d", evTraced, evTracedCalls, evPlain, evCalls)
	}

	recs, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]obs.Record{} // explorer attr → root record
	for _, r := range recs {
		if r.Name == "explore" {
			roots[r.AttrStr("explorer")] = r
		}
	}
	if len(roots) != 2 {
		t.Fatalf("explore roots = %d, want 2 (hillclimb, evolve)", len(roots))
	}
	restarts, generations := 0, 0
	for _, r := range recs {
		switch r.Name {
		case "restart":
			restarts++
			if r.Parent != roots["hillclimb"].ID {
				t.Errorf("restart span parented under %d, want %d", r.Parent, roots["hillclimb"].ID)
			}
		case "generation":
			generations++
			if r.Parent != roots["evolve"].ID {
				t.Errorf("generation span parented under %d, want %d", r.Parent, roots["evolve"].ID)
			}
		}
	}
	if restarts != hcfg.Restarts {
		t.Errorf("restart spans = %d, want %d", restarts, hcfg.Restarts)
	}
	if generations != ecfg.Generations {
		t.Errorf("generation spans = %d, want %d", generations, ecfg.Generations)
	}
	// Restart call counts sum to the search total (memoisation makes
	// later restarts cheaper, never double-counted).
	sum := int64(0)
	for _, r := range recs {
		if r.Name == "restart" {
			sum += r.AttrInt("calls")
		}
	}
	if sum != int64(hcCalls) {
		t.Errorf("restart span calls sum to %d, want %d", sum, hcCalls)
	}
	if got := roots["hillclimb"].AttrInt("calls"); got != int64(hcCalls) {
		t.Errorf("hillclimb root calls = %d, want %d", got, hcCalls)
	}
}

// TestTracedExplorerNilRecorder pins what the span hooks sit in front
// of: a caller's own OnRestart / OnGeneration still fires once per
// boundary, with tracing off (nil) and on.
func TestTracedExplorerNilRecorder(t *testing.T) {
	d := newFakeDomain(t)
	rec, err := obs.OpenDir(t.TempDir(), "explorer")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for _, r := range []*obs.Recorder{nil, rec} {
		restarts, generations := 0, 0
		hcfg := core.HillClimbConfig{Restarts: 2, MaxSteps: 10, Seed: 9,
			OnRestart: func(int, int, int, core.Evaluation) { restarts++ }}
		ecfg := core.EvolveConfig{Population: 6, Generations: 3, Seed: 9,
			OnGeneration: func(int, int, core.Evaluation) { generations++ }}
		if _, _, err := dsa.HillClimb(d, fakeWeights(), fakeCfg(), hcfg, nil, r); err != nil {
			t.Fatal(err)
		}
		if _, _, err := dsa.Evolve(d, fakeWeights(), fakeCfg(), ecfg, nil, r); err != nil {
			t.Fatal(err)
		}
		if restarts != hcfg.Restarts || generations != ecfg.Generations {
			t.Errorf("recorder %v: caller hooks fired %d/%d times, want %d/%d",
				r != nil, restarts, generations, hcfg.Restarts, ecfg.Generations)
		}
	}
}
