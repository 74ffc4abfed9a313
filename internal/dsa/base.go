package dsa

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// Norm is how Assemble turns a measure's raw vector into its value
// vector — the whole-set step of the solution concept.
type Norm int

const (
	// AsIs passes the raw value through: it is already a [0,1]
	// higher-is-better fraction (a win fraction, a completion ratio).
	AsIs Norm = iota
	// MinMax is the paper's performance normalisation over the
	// evaluated set: 1 = best in set, 0 = worst, all zeros when every
	// value is equal.
	MinMax
	// InvertedMinMax is MinMax for a raw value where small is good (a
	// completion time): 1 = the set's minimum. The all-equal set keeps
	// MinMax's all-zeros convention rather than flipping to all-ones.
	InvertedMinMax
)

func (n Norm) apply(raw []float64) []float64 {
	if n == AsIs {
		return slices.Clone(raw)
	}
	out := stats.MinMaxNormalize(raw)
	if n == MinMax || len(raw) == 0 || stats.Max(raw)-stats.Min(raw) <= 0 {
		return out
	}
	for i := range out {
		out[i] = 1 - out[i]
	}
	return out
}

// Measure is one row of a domain's measure table: the measure's name
// and how Assemble normalises it.
type Measure struct {
	Name string
	Norm Norm
}

// Base is what a domain declares rather than computes: its name, space,
// presets and measure table. Embedded (by pointer) in a domain type it
// supplies Name, Space, PointID, PointByID, Measures, DefaultConfig and
// Assemble, leaving the domain Label, SampleOpponents and ScoreSlice.
type Base struct {
	name         string
	space        *core.Space
	quick, paper Config
	measures     []Measure
}

// NewBase declares a domain. measures are in canonical order (see
// Domain.Measures); quick and paper are the two DefaultConfig presets.
// A point's ID is its position in space.Enumerate() in every domain, so
// the space's dimensions, values and constraint must never change under
// a registered name.
func NewBase(name string, space *core.Space, quick, paper Config, measures ...Measure) *Base {
	if len(measures) == 0 {
		panic("dsa: domain " + name + " declares no measures")
	}
	return &Base{name: name, space: space, quick: quick, paper: paper, measures: measures}
}

func (b *Base) Name() string       { return b.name }
func (b *Base) Space() *core.Space { return b.space }

func (b *Base) Measures() []string {
	names := make([]string, len(b.measures))
	for i, m := range b.measures {
		names[i] = m.Name
	}
	return names
}

func (b *Base) DefaultConfig(preset string) (Config, error) {
	switch preset {
	case "quick":
		return b.quick, nil
	case "paper":
		return b.paper, nil
	}
	return Config{}, fmt.Errorf("%s: unknown preset %q (want quick or paper)", b.name, preset)
}

func (b *Base) PointID(p core.Point) (int, error) {
	id, ok := b.space.Index(p)
	if !ok {
		return 0, fmt.Errorf("%s: point %v is not in the %s space", b.name, p, b.name)
	}
	return id, nil
}

func (b *Base) PointByID(id int) (core.Point, error) {
	pts := b.space.Enumerate()
	if id < 0 || id >= len(pts) {
		return nil, fmt.Errorf("%s: point ID %d out of range [0,%d)", b.name, id, len(pts))
	}
	return pts[id], nil
}

// Assemble bundles the per-measure raw vectors into Scores and applies
// each measure's Norm over the evaluated set. Every measure must be
// present with one value per point, and every point must be in the
// space. Raw and Values get distinct backing slices, so a caller
// mutating one view cannot corrupt the other (or the engine's in-memory
// task results).
func (b *Base) Assemble(pts []core.Point, raw map[string][]float64) (*Scores, error) {
	for _, p := range pts {
		if !b.space.Valid(p) {
			return nil, fmt.Errorf("%s: point %v is not in the %s space", b.name, p, b.name)
		}
	}
	s := &Scores{Domain: b.name, Points: pts, Raw: map[string][]float64{}, Values: map[string][]float64{}}
	for _, m := range b.measures {
		vals := raw[m.Name]
		if len(vals) != len(pts) {
			return nil, fmt.Errorf("%s: %s has %d values, want %d", b.name, m.Name, len(vals), len(pts))
		}
		s.Raw[m.Name] = slices.Clone(vals)
		s.Values[m.Name] = m.Norm.apply(vals)
	}
	return s, nil
}
