package pra

import (
	"sync/atomic"
	"testing"

	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/stats"
)

// tiny returns a fast test configuration.
func tiny() dsa.Config {
	return dsa.Config{Peers: 16, Rounds: 60, PerfRuns: 1, EncounterRuns: 1, Opponents: 8, Seed: 5}
}

func TestPaperConfigMatchesSection43(t *testing.T) {
	p := Paper()
	if p.Peers != 50 || p.Rounds != 500 || p.PerfRuns != 100 || p.EncounterRuns != 10 {
		t.Errorf("Paper() = %+v, want 50 peers / 500 rounds / 100 perf runs / 10 encounter runs", p)
	}
	if p.Opponents != 0 {
		t.Error("Paper() must use the full round-robin")
	}
	for name, cfg := range map[string]dsa.Config{"Paper": Paper(), "Quick": Quick()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", name, err)
		}
	}
}

func TestEncounterSpecsBalance(t *testing.T) {
	a, b := design.BitTorrent(), design.Freerider()
	specs, mask := EncounterSpecs(a, b, 50, 25)
	nA := 0
	var capA, capB float64
	for i, s := range specs {
		if mask[i] {
			nA++
			capA += s.Capacity
			if s.Protocol != a {
				t.Fatal("mask does not match protocol assignment")
			}
		} else {
			capB += s.Capacity
			if s.Protocol != b {
				t.Fatal("mask does not match protocol assignment")
			}
		}
	}
	if nA != 25 {
		t.Fatalf("nA = %d, want 25", nA)
	}
	// Stratified interleaving keeps camp capacities within 10%.
	if ratio := capA / capB; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("capacity ratio between camps = %v, want ~1", ratio)
	}
}

func TestEncounterSpecsMinority(t *testing.T) {
	a, b := design.BitTorrent(), design.Freerider()
	_, mask := EncounterSpecs(a, b, 50, 5)
	nA := 0
	for _, m := range mask {
		if m {
			nA++
		}
	}
	if nA != 5 {
		t.Fatalf("minority count = %d, want 5", nA)
	}
}

func TestEncounterDeterminism(t *testing.T) {
	cfg := tiny()
	a1, b1, err := Encounter(design.BitTorrent(), design.Freerider(), 0.5, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := Encounter(design.BitTorrent(), design.Freerider(), 0.5, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || b1 != b2 {
		t.Error("same seed must reproduce encounter")
	}
}

func TestEncounterBTBeatsFreerider(t *testing.T) {
	cfg := tiny()
	meanBT, meanFR, err := Encounter(design.BitTorrent(), design.Freerider(), 0.5, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if meanBT <= meanFR {
		t.Errorf("BT camp %v should beat freeriders %v", meanBT, meanFR)
	}
}

func TestPerformanceSweepOrdering(t *testing.T) {
	cfg := tiny()
	cfg.Rounds = 150
	ps := []design.Protocol{design.BitTorrent(), design.Freerider(), design.SortS()}
	raw, err := PerformanceSweep(Points(ps), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if raw[1] != 0 {
		t.Errorf("freerider raw perf = %v, want 0", raw[1])
	}
	if raw[0] <= raw[1] || raw[2] <= raw[1] {
		t.Error("cooperative protocols must beat freeriders")
	}
	norm := stats.MinMaxNormalize(raw)
	if stats.Max(norm) != 1 || stats.Min(norm) != 0 {
		t.Error("normalisation should span [0,1]")
	}
}

func TestSampleOpponentsFixedAndSized(t *testing.T) {
	cfg, d := tiny(), Domain()
	s1 := d.SampleOpponents(cfg)
	s2 := d.SampleOpponents(cfg)
	if len(s1) != cfg.Opponents {
		t.Fatalf("panel size = %d, want %d", len(s1), cfg.Opponents)
	}
	for i := range s1 {
		if !s1[i].Equal(s2[i]) {
			t.Fatal("panel must be deterministic")
		}
	}
	// Opponents=0 → everything.
	cfg.Opponents = 0
	if got := len(d.SampleOpponents(cfg)); got != d.Space().Size() {
		t.Fatalf("full panel size = %d", got)
	}
	// Distinct protocols in the panel.
	seen := map[string]bool{}
	for _, p := range s1 {
		if seen[p.Key()] {
			t.Fatalf("duplicate opponent %s", d.Label(p))
		}
		seen[p.Key()] = true
	}
}

func TestTournamentScoresRobustOrdering(t *testing.T) {
	// The robust candidate should beat the freerider-family protocols
	// far more often than a freerider does.
	cfg := tiny()
	ps := []design.Protocol{design.MostRobustCandidate(), design.Freerider()}
	opponents := []design.Protocol{
		design.BitTorrent(), design.Birds(), design.SortS(),
		design.LoyalWhenNeeded(), design.SortRandom(), design.Freerider(),
	}
	scores, err := TournamentScores(Points(ps), Points(opponents), 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] <= scores[1] {
		t.Errorf("robust candidate %v should out-score freerider %v", scores[0], scores[1])
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Errorf("score %v outside [0,1]", s)
		}
	}
}

func TestTournamentSkipsSelfPlay(t *testing.T) {
	cfg := tiny()
	ps := []design.Protocol{design.BitTorrent()}
	opponents := []design.Protocol{design.BitTorrent()}
	scores, err := TournamentScores(Points(ps), Points(opponents), 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] != 0 {
		t.Errorf("self-only tournament should score 0 (no games), got %v", scores[0])
	}
}

// TestRunPRAEndToEnd runs the whole quantification the way every
// engine does: one Domain().ScoreSlice per measure over the sampled
// panel, then Assemble.
func TestRunPRAEndToEnd(t *testing.T) {
	cfg := tiny()
	cfg.Opponents = 6
	ps := []design.Protocol{
		design.BitTorrent(), design.Freerider(), design.SortS(), design.MostRobustCandidate(),
	}
	d, pts := Domain(), Points(ps)
	opponents := d.SampleOpponents(cfg)
	raw := map[string][]float64{}
	for _, m := range d.Measures() {
		vals, err := d.ScoreSlice(m, pts, opponents, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw[m] = vals
	}
	scores, err := d.Assemble(pts, raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Measures() {
		if len(scores.Measure(m)) != len(ps) || len(scores.Raw[m]) != len(ps) {
			t.Fatalf("%s: score lengths mismatch", m)
		}
		for i, v := range scores.Measure(m) {
			if v < 0 || v > 1 {
				t.Errorf("%s: %s %v outside [0,1]", ps[i], m, v)
			}
		}
	}
	// The freerider must be at the bottom of performance.
	if got := scores.Measure(MeasurePerformance)[1]; got != 0 {
		t.Errorf("freerider performance = %v, want 0", got)
	}
	// The measure vocabulary is closed, and a missing vector is refused.
	if _, err := d.ScoreSlice("throughput", pts, opponents, cfg); err == nil {
		t.Error("unknown measure scored")
	}
	delete(raw, MeasureAggressiveness)
	if _, err := d.Assemble(pts, raw); err == nil {
		t.Error("Assemble accepted a missing measure")
	}
}

func TestRunSeedIndependence(t *testing.T) {
	// Different coordinates must give different seeds (no collisions in
	// a small sample), and the same coordinates the same seed.
	seen := map[int64]bool{}
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			for r := 0; r < 3; r++ {
				s := dsa.TaskSeed(1, a, b, r, 500)
				if seen[s] {
					t.Fatalf("seed collision at (%d,%d,%d)", a, b, r)
				}
				seen[s] = true
			}
		}
	}
	if dsa.TaskSeed(1, 2, 3, 4, 500) != dsa.TaskSeed(1, 2, 3, 4, 500) {
		t.Error("TaskSeed must be deterministic")
	}
	if dsa.TaskSeed(1, 2, 3, 4, 500) == dsa.TaskSeed(2, 2, 3, 4, 500) {
		t.Error("master seed must matter")
	}
}

// TestParallelForCoversAll: every index runs exactly once, whatever the
// worker count — fewer workers than indices, as many, or more.
func TestParallelForCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		for _, w := range []int{1, 2, n, n + 5} {
			hits := make([]atomic.Int32, n)
			dsa.ParallelFor(n, w, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, w, i, c)
				}
			}
		}
	}
}
