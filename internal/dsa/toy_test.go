package dsa_test

// toyDomain is DESIGN.md's "Adding a new domain" recipe, compiled: a
// space, a Base declaration, Label, SampleOpponents and a ScoreSlice on
// the shared loops. It is not registered (the registry is what the CLIs
// and the golden iterate); it is one more row of the conformance table
// (conformance_test.go), so the recipe cannot rot, and its two broken
// variants there show that the laws catch what they claim to.

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dsa"
)

const (
	toyYield      = "yield"
	toyRobustness = "robustness"
)

type toyDomain struct{ *dsa.Base }

func newToyDomain() toyDomain {
	space, err := core.NewSpace("toy", []core.Dimension{
		{Name: "greed", Values: []string{"low", "mid", "high"}},
		{Name: "memory", Values: []string{"0", "1", "2", "3"}},
	}, nil)
	if err != nil {
		panic(err)
	}
	return toyDomain{dsa.NewBase("toy", space,
		dsa.Config{Peers: 6, Rounds: 10, PerfRuns: 2, EncounterRuns: 1, Opponents: 4, Seed: 1},
		dsa.Config{Peers: 20, Rounds: 50, PerfRuns: 10, EncounterRuns: 5, Seed: 1},
		dsa.Measure{Name: toyYield, Norm: dsa.MinMax},
		dsa.Measure{Name: toyRobustness},
	)}
}

func (toyDomain) Label(p core.Point) string { return "toy/" + p.Key() }

func (d toyDomain) SampleOpponents(cfg dsa.Config) []core.Point {
	return dsa.SamplePanel(d.Space().Enumerate(), cfg.Opponents, cfg.Seed)
}

// toySimulate is the domain's simulator: nA of cfg.Peers nodes play a,
// the rest b; it returns both camps' mean utility after cfg.Rounds noisy
// rounds in which greed pays against low memory.
func toySimulate(a, b core.Point, nA int, cfg dsa.Config, seed int64) (meanA, meanB float64) {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < cfg.Rounds; r++ {
		meanA += float64(1+a[0])*rng.Float64() - 0.1*float64(b[1])
		meanB += float64(1+b[0])*rng.Float64() - 0.1*float64(a[1])
	}
	return meanA * float64(nA) / float64(cfg.Peers), meanB * float64(cfg.Peers-nA) / float64(cfg.Peers)
}

func (d toyDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	return d.score(measure, pts, opponents, cfg, d.PointID)
}

// score is ScoreSlice with the seeds drawn from id — d.PointID, or a
// broken stand-in in the conformance suite's mutants.
func (d toyDomain) score(measure string, pts, opponents []core.Point, cfg dsa.Config, id func(core.Point) (int, error)) ([]float64, error) {
	switch measure {
	case toyYield:
		return dsa.MeanOverRuns(pts, id, 1, cfg, func(p core.Point) (dsa.Stat, error) {
			return func(seed int64) (float64, error) {
				mean, _ := toySimulate(p, p, cfg.Peers, cfg, seed)
				return mean, nil
			}, nil
		})
	case toyRobustness:
		return dsa.WinFractions(pts, opponents, id, 500, cfg, func(a, b core.Point) (dsa.Game, error) {
			return func(seed int64) (float64, float64, error) {
				meanA, meanB := toySimulate(a, b, cfg.Peers/2, cfg, seed)
				return meanA, meanB, nil
			}, nil
		})
	}
	return nil, fmt.Errorf("toy: unknown measure %q", measure)
}
