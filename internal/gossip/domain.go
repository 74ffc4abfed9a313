package gossip

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dsa"
)

// DomainName is the gossip domain's registry name.
const DomainName = "gossip"

// Measure kinds of the gossip solution concept: Coverage is the
// domain's performance analogue (population mean rumours learned per
// node in a homogeneous population, min-max normalised over the
// evaluated set), Robustness the 50/50 tournament win fraction exactly
// as in the file-swarming domain.
const (
	MeasureCoverage   = "coverage"
	MeasureRobustness = "robustness"
)

// seed discriminators, in the spirit of pra's seed kinds.
const (
	seedKindCoverage   = 1
	seedKindRobustness = 500 // 0.5 * 1000, mirroring pra's frac scheme
)

func init() { dsa.Register(Domain()) }

// Domain returns the gossip design space of Section 3.1 as a
// dsa.Domain. Implementing the interface is all it takes for a gossip
// sweep to be shardable, checkpointable, resumable and mergeable by
// internal/job exactly like the 3270-protocol file-swarming sweep.
func Domain() dsa.Domain { return domainImpl{base} }

type domainImpl struct{ *dsa.Base }

// base declares the domain. quick is the full 216-protocol space
// against a 24-opponent panel, 0.7 s on two cores (1.25 cpu-s); paper is
// a full round-robin at DefaultOptions scale.
var base = dsa.NewBase(DomainName, Space(),
	dsa.Config{Peers: 30, Rounds: 120, PerfRuns: 2, EncounterRuns: 1, Opponents: 24, Seed: 1},
	dsa.Config{Peers: 40, Rounds: 200, PerfRuns: 10, EncounterRuns: 5, Seed: 1},
	dsa.Measure{Name: MeasureCoverage, Norm: dsa.MinMax},
	dsa.Measure{Name: MeasureRobustness},
)

func (domainImpl) Label(p core.Point) string {
	proto, err := FromPoint(p)
	if err != nil {
		return p.Key()
	}
	return proto.String()
}

func (d domainImpl) SampleOpponents(cfg dsa.Config) []core.Point {
	return dsa.SamplePanel(d.Space().Enumerate(), cfg.Opponents, cfg.Seed)
}

// population decodes two points into cfg.Peers nodes: the first nA run
// a's protocol, the rest b's.
func population(a, b core.Point, nA int, cfg dsa.Config) ([]Protocol, error) {
	pa, err := FromPoint(a)
	if err != nil {
		return nil, err
	}
	pb, err := FromPoint(b)
	if err != nil {
		return nil, err
	}
	nodes := make([]Protocol, cfg.Peers)
	for j := range nodes {
		nodes[j] = pb
		if j < nA {
			nodes[j] = pa
		}
	}
	return nodes, nil
}

// simulate runs one population once. RumourRate and ExpireAge are
// domain constants (DefaultOptions), not sweep knobs.
func simulate(nodes []Protocol, cfg dsa.Config, seed int64) (Result, error) {
	def := DefaultOptions()
	return Run(nodes, Options{
		Nodes:      cfg.Peers,
		Rounds:     cfg.Rounds,
		RumourRate: def.RumourRate,
		ExpireAge:  def.ExpireAge,
		Seed:       seed,
	})
}

// ScoreSlice is the Section 3.2 solution concept, verbatim, in the
// gossip domain. Coverage is the population mean number of rumours
// learned per node in an all-p population, averaged over PerfRuns runs;
// robustness is p's win fraction in 50/50 mixed populations against the
// opponent panel.
func (d domainImpl) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	switch measure {
	case MeasureCoverage:
		return dsa.MeanOverRuns(pts, d.PointID, seedKindCoverage, cfg, func(p core.Point) (dsa.Stat, error) {
			nodes, err := population(p, p, cfg.Peers, cfg)
			if err != nil {
				return nil, err
			}
			return func(seed int64) (float64, error) {
				res, err := simulate(nodes, cfg, seed)
				if err != nil {
					return 0, err
				}
				return res.Mean(), nil
			}, nil
		})
	case MeasureRobustness:
		nA := cfg.Peers / 2
		return dsa.WinFractions(pts, opponents, d.PointID, seedKindRobustness, cfg, func(a, b core.Point) (dsa.Game, error) {
			nodes, err := population(a, b, nA, cfg)
			if err != nil {
				return nil, err
			}
			return func(seed int64) (float64, float64, error) {
				res, err := simulate(nodes, cfg, seed)
				if err != nil {
					return 0, 0, err
				}
				return res.GroupMean(func(j int) bool { return j < nA }), res.GroupMean(func(j int) bool { return j >= nA }), nil
			}, nil
		})
	}
	return nil, fmt.Errorf("gossip: unknown measure %q", measure)
}
