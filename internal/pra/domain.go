package pra

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/stats"
)

// DomainName is the file-swarming domain's registry name.
const DomainName = "swarming"

// The three PRA measures, in canonical order. A full quantification is
// their cross product with the protocol set; because every simulation
// seed derives from protocol identity (runSeed), the work can be cut
// into arbitrary protocol slices and recombined without changing a
// single value.
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
func Domain() dsa.Domain { return swarmingDomain{} }

type swarmingDomain struct{}

func (swarmingDomain) Name() string { return DomainName }

// space is shared so the lazily built enumeration is computed once.
var swarmingSpace = core.FileSwarmingSpace()

func (swarmingDomain) Space() *core.Space { return swarmingSpace }

func (swarmingDomain) PointID(p core.Point) (int, error) {
	proto, err := core.PointProtocol(p)
	if err != nil {
		return 0, err
	}
	return design.ID(proto), nil
}

func (swarmingDomain) PointByID(id int) (core.Point, error) {
	proto, err := design.ByID(id)
	if err != nil {
		return nil, err
	}
	return core.ProtocolPoint(proto), nil
}

func (swarmingDomain) Label(p core.Point) string {
	proto, err := core.PointProtocol(p)
	if err != nil {
		return p.Key()
	}
	return proto.String()
}

func (swarmingDomain) Measures() []string {
	return []string{MeasurePerformance, MeasureRobustness, MeasureAggressiveness}
}

func (swarmingDomain) DefaultConfig(preset string) (dsa.Config, error) {
	switch preset {
	case "quick":
		return Quick(), nil
	case "paper":
		return Paper(), nil
	}
	return dsa.Config{}, fmt.Errorf("pra: unknown preset %q (want quick or paper)", preset)
}

func (swarmingDomain) SampleOpponents(cfg dsa.Config) []core.Point {
	return Points(SampleOpponents(cfg))
}

// ScoreSlice computes the raw scores of one measure for pts, a slice
// of a (possibly larger) point set. Robustness and aggressiveness play
// against the given opponent panel (see SampleOpponents); performance
// ignores it. Seeds derive from protocol identity, not position, so
// concatenating slice results equals a single full-set call — this is
// the primitive the job engine shards over.
//
// Performance values are raw KiB/s: the paper's min-max normalisation
// needs the whole set, so it happens in Assemble after merging.
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

// Assemble bundles per-measure raw score vectors into Scores, applying
// the paper's min-max normalisation of performance over the evaluated
// set. Every measure must be present and match len(pts).
func (d swarmingDomain) Assemble(pts []core.Point, raw map[string][]float64) (*dsa.Scores, error) {
	if _, err := Protocols(pts); err != nil {
		return nil, err
	}
	for _, m := range d.Measures() {
		if len(raw[m]) != len(pts) {
			return nil, fmt.Errorf("pra: %s has %d values, want %d", m, len(raw[m]), len(pts))
		}
	}
	// Raw and Values get distinct backing slices so a caller mutating
	// one view cannot silently corrupt the other (or the engine's
	// in-memory task results).
	return &dsa.Scores{
		Domain: DomainName,
		Points: pts,
		Raw: map[string][]float64{
			MeasurePerformance:    slices.Clone(raw[MeasurePerformance]),
			MeasureRobustness:     slices.Clone(raw[MeasureRobustness]),
			MeasureAggressiveness: slices.Clone(raw[MeasureAggressiveness]),
		},
		Values: map[string][]float64{
			MeasurePerformance:    stats.MinMaxNormalize(raw[MeasurePerformance]),
			MeasureRobustness:     slices.Clone(raw[MeasureRobustness]),
			MeasureAggressiveness: slices.Clone(raw[MeasureAggressiveness]),
		},
	}, nil
}

// Protocols decodes swarming points into the design package's typed
// protocols; a point outside the space is an error.
func Protocols(pts []core.Point) ([]design.Protocol, error) {
	out := make([]design.Protocol, len(pts))
	for i, p := range pts {
		proto, err := core.PointProtocol(p)
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
		out[i] = core.ProtocolPoint(p)
	}
	return out
}
