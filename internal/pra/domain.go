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
// seed derives from protocol identity (dsa.TaskSeed over design.ID), the
// work can be cut into arbitrary protocol slices and recombined without
// changing a single value.
const (
	MeasurePerformance    = "performance"
	MeasureRobustness     = "robustness"
	MeasureAggressiveness = "aggressiveness"
)

func init() { dsa.Register(Domain()) }

// Domain returns the file-swarming design space of Section 4 as a
// dsa.Domain: the quantification primitives of this package
// (PerformanceSweep, TournamentScores, SampleOpponents) behind the
// generic interface, which is what the sharded job engine, the CLIs and
// the figure drivers of package exp all run against.
func Domain() dsa.Domain { return swarmingDomain{base} }

type swarmingDomain struct{ *dsa.Base }

// base declares the domain. Performance is raw KiB/s out of ScoreSlice:
// the paper's min-max normalisation needs the whole set, so it happens
// in Assemble after merging. Point IDs are design.ID, not the space's
// enumeration index: it is the ID every swarming checkpoint, CSV and
// seed has carried since before the space had a core.Space form, and it
// is arithmetic where the index needs a lookup.
var base = dsa.NewBase(DomainName, Space(), Quick(), Paper(),
	dsa.Measure{Name: MeasurePerformance, Norm: dsa.MinMax},
	dsa.Measure{Name: MeasureRobustness},
	dsa.Measure{Name: MeasureAggressiveness},
).WithIDs(
	func(p core.Point) (int, error) {
		proto, err := FromPoint(p)
		if err != nil {
			return 0, err
		}
		return design.ID(proto), nil
	},
	func(id int) (core.Point, error) {
		proto, err := design.ByID(id)
		if err != nil {
			return nil, err
		}
		return ToPoint(proto), nil
	},
)

func (swarmingDomain) Label(p core.Point) string {
	proto, err := FromPoint(p)
	if err != nil {
		return p.Key()
	}
	return proto.String()
}

func (swarmingDomain) SampleOpponents(cfg dsa.Config) []core.Point {
	return Points(SampleOpponents(cfg))
}

// ScoreSlice computes the raw scores of one measure for pts. Robustness
// and aggressiveness play against the given opponent panel (see
// SampleOpponents); performance ignores it.
func (swarmingDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	var frac float64
	switch measure {
	case MeasurePerformance:
	case MeasureRobustness:
		frac = 0.5
	case MeasureAggressiveness:
		frac = 0.1
	default:
		return nil, fmt.Errorf("pra: unknown measure %q", measure)
	}
	ps, err := Protocols(pts)
	if err != nil {
		return nil, err
	}
	if measure == MeasurePerformance {
		return PerformanceSweep(ps, cfg)
	}
	opps, err := Protocols(opponents)
	if err != nil {
		return nil, err
	}
	return TournamentScores(ps, opps, frac, cfg)
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
