package job

// The value pin of the explorer seam: for every registered domain,
// HillClimb under two search seeds, each run three times —
// no cache, a cold cache, the same cache warm — must return the recorded
// best point, score bits and objective-call count, and the warm run must
// not reach the simulator. Recorded on the per-point dsa.Objective path
// the explorers scored through before they batched onto ExecTasks.
//
// go test ./internal/job -run TestExplorerGolden -update re-records from
// the live code, so only at a commit whose values are trusted.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/pra"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/explore.golden.json from the live explorers")

const exploreGoldenPath = "testdata/explore.golden.json"

// exploreCases blends at least two measures per domain (delivery's three
// skip one of its canonical order), so the golden pins the blend's
// summation order and, for a JointScorer, the shared runs.
var exploreCases = []struct {
	d   dsa.Domain
	cfg dsa.Config
	w   Weights
}{
	{pra.Domain(), dsa.Config{Peers: 12, Rounds: 50, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 1},
		Weights{pra.MeasurePerformance: 1, pra.MeasureRobustness: 40}},
	{gossip.Domain(), dsa.Config{Peers: 10, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7},
		Weights{gossip.MeasureCoverage: 1, gossip.MeasureRobustness: 0.25}},
	{delivery.Domain(), dsa.Config{Peers: 8, Rounds: 240, PerfRuns: 2, EncounterRuns: 1, Seed: 3, Churn: 0.01},
		Weights{delivery.MeasureRobustness: 1, delivery.MeasureMeanTime: -0.002, delivery.MeasureMirrorOffload: 0.5}},
}

var exploreSeeds = []int64{3, 11}

func goldenHillClimb(d dsa.Domain, w Weights, cfg dsa.Config, seed int64, c dsa.ScoreCache) (Evaluation, int, error) {
	return HillClimb(context.Background(), d, w, cfg, HillClimbConfig{Restarts: 2, MaxSteps: 8, Seed: seed}, c, nil)
}

// countedDomain counts the (measure, point) scores the simulator is
// asked for, through either scoring entry.
type countedDomain struct {
	dsa.Domain
	sims *atomic.Int64
}

func (c countedDomain) ScoreSlice(m string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	c.sims.Add(int64(len(pts)))
	return c.Domain.ScoreSlice(m, pts, opponents, cfg)
}

func (c countedDomain) ScoreSlices(ms []string, pts, opponents []core.Point, cfg dsa.Config) ([][]float64, error) {
	c.sims.Add(int64(len(ms) * len(pts)))
	return dsa.ScoreSlices(c.Domain, ms, pts, opponents, cfg)
}

// exploreGolden is one search's record.
type exploreGolden struct {
	Point    int    `json:"point"`      // best point's ID
	Score    string `json:"score_bits"` // its blended score, float64 bits in hex
	Calls    int    `json:"calls"`      // objective calls
	WarmSims int64  `json:"warm_sims"`  // scores simulated by the warm-cache run
}

func TestExplorerGolden(t *testing.T) {
	if len(exploreCases) != len(dsa.Registered()) {
		t.Fatalf("%d explorer cases for %d registered domains", len(exploreCases), len(dsa.Registered()))
	}
	got := map[string]exploreGolden{}
	for _, tc := range exploreCases {
		for _, seed := range exploreSeeds {
			name := fmt.Sprintf("%s/hillclimb/seed=%d", tc.d.Name(), seed)
			var sims atomic.Int64
			d := countedDomain{tc.d, &sims}
			store, err := cache.Open(cache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var g exploreGolden
			for i, state := range []string{"no cache", "cold cache", "warm cache"} {
				var c dsa.ScoreCache
				if i > 0 {
					c = store
				}
				sims.Store(0)
				best, calls, err := goldenHillClimb(d, tc.w, tc.cfg, seed, c)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, state, err)
				}
				id, err := tc.d.PointID(best.Point)
				if err != nil {
					t.Fatal(err)
				}
				run := exploreGolden{Point: id, Score: fmt.Sprintf("%016x", math.Float64bits(best.Score)), Calls: calls}
				switch state {
				case "no cache":
					g = run
				case "cold cache":
					if sims.Load() == 0 {
						t.Errorf("%s: the cold-cache run simulated nothing", name)
					}
				case "warm cache":
					run.WarmSims = sims.Load()
					g.WarmSims = run.WarmSims
				}
				if run != g {
					t.Errorf("%s: %s gives %+v, no cache %+v", name, state, run, g)
				}
			}
			store.Close()
			got[name] = g
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exploreGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(exploreGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]exploreGolden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name, g := range got {
			if g != want[name] {
				t.Errorf("%s: got %+v, golden %+v", name, g, want[name])
			}
		}
		if len(got) != len(want) {
			t.Errorf("golden holds %d searches, ran %d", len(want), len(got))
		}
	}
}
