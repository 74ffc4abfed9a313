package pra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dsa"
)

// DomainName is the file-swarming domain's registry name.
const DomainName = "swarming"

// The three PRA measures, in canonical order. A full quantification is
// their cross product with the protocol set; because every simulation
// seed derives from protocol identity (dsa.TaskSeed over the point ID),
// the work can be cut into arbitrary protocol slices and recombined
// without changing a single value.
const (
	MeasurePerformance    = "performance"
	MeasureRobustness     = "robustness"
	MeasureAggressiveness = "aggressiveness"
)

func init() { dsa.Register(Domain()) }

// Domain returns the file-swarming design space of Section 4 as a
// dsa.Domain: the quantification primitives of this package
// (PerformanceSweep, TournamentScores) behind the generic interface,
// which is what the sharded job engine, the CLIs and the figure drivers
// of package exp all run against.
func Domain() dsa.Domain { return swarmingDomain{base} }

type swarmingDomain struct{ *dsa.Base }

// base declares the domain. Performance is raw KiB/s out of ScoreSlice:
// the paper's min-max normalisation needs the whole set, so it happens
// in Assemble after merging. A point's ID is its index in the space's
// enumeration, as in every domain; swarming checkpoints, CSVs, cache keys
// and seeds are written in it, so Space's enumeration order must never
// change (TestSwarmingIDsGolden pins it).
var base = dsa.NewBase(DomainName, Space(), Quick(), Paper(),
	dsa.Measure{Name: MeasurePerformance, Norm: dsa.MinMax},
	dsa.Measure{Name: MeasureRobustness},
	dsa.Measure{Name: MeasureAggressiveness},
)

func (swarmingDomain) Label(p core.Point) string {
	proto, err := FromPoint(p)
	if err != nil {
		return p.Key()
	}
	return proto.String()
}

// SampleOpponents returns the fixed opponent panel of reduced
// configurations: cfg.Opponents protocols drawn deterministically and
// evenly from the whole space (all of it when Opponents is 0 or exceeds
// it) by dsa.SamplePanel. Every tournament uses the same panel, keeping
// scores comparable across protocols.
func (swarmingDomain) SampleOpponents(cfg dsa.Config) []core.Point {
	return dsa.SamplePanel(base.Space().Enumerate(), cfg.Opponents, cfg.Seed)
}

// ScoreSlice computes the raw scores of one measure for pts. Robustness
// and aggressiveness play against the given opponent panel (see
// SampleOpponents); performance ignores it.
func (swarmingDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	switch measure {
	case MeasurePerformance:
		return PerformanceSweep(pts, cfg)
	case MeasureRobustness:
		return TournamentScores(pts, opponents, 0.5, cfg)
	case MeasureAggressiveness:
		return TournamentScores(pts, opponents, 0.1, cfg)
	}
	return nil, fmt.Errorf("pra: unknown measure %q", measure)
}

// Protocols decodes swarming points into the design package's typed
// protocols; a point outside the space is an error.
func Protocols(pts []core.Point) ([]design.Protocol, error) {
	out := make([]design.Protocol, len(pts))
	for i, p := range pts {
		proto, err := FromPoint(p)
		if err != nil {
			return nil, err
		}
		out[i] = proto
	}
	return out, nil
}

// Points is the inverse of Protocols.
func Points(ps []design.Protocol) []core.Point {
	out := make([]core.Point, len(ps))
	for i, p := range ps {
		out[i] = ToPoint(p)
	}
	return out
}
