package main

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/dsa"
)

// nullDomainName is the registry name of the benchmark-owned domain.
const nullDomainName = "bench-null"

// nullMeasure is the single measure of the null domain.
const nullMeasure = "echo"

// nullSide is the size of each of the three dimensions: 16^3 = 4096
// points, enough for 512 eight-point tasks.
const nullSide = 16

// nullDomain is a dsa.Domain whose ScoreSlice costs nothing: the score
// of a point is a pure function of its ID. Everything above the domain
// seam — job.ExecTasks bookkeeping, checkpoint writes, grid leases and
// uploads — still runs in full, so a sweep over it measures the
// engine's own ceiling. It is registered only in this binary.
type nullDomain struct{ space *core.Space }

func newNullDomain() nullDomain {
	vals := make([]string, nullSide)
	for i := range vals {
		vals[i] = strconv.Itoa(i)
	}
	dims := []core.Dimension{{Name: "a", Values: vals}, {Name: "b", Values: vals}, {Name: "c", Values: vals}}
	s, err := core.NewSpace(nullDomainName, dims, nil)
	if err != nil {
		panic(err) // the dimensions above are static
	}
	return nullDomain{space: s}
}

var theNullDomain = newNullDomain()

func init() { dsa.Register(theNullDomain) }

func (nullDomain) Name() string              { return nullDomainName }
func (d nullDomain) Space() *core.Space      { return d.space }
func (nullDomain) Measures() []string        { return []string{nullMeasure} }
func (nullDomain) Label(p core.Point) string { return p.Key() }

// PointID is the point read as a base-nullSide number — stable by
// construction, independent of enumeration order.
func (nullDomain) PointID(p core.Point) (int, error) {
	if len(p) != 3 {
		return 0, fmt.Errorf("bench-null: point %v has %d dimensions, want 3", p, len(p))
	}
	id := 0
	for _, v := range p {
		if v < 0 || v >= nullSide {
			return 0, fmt.Errorf("bench-null: point %v out of range", p)
		}
		id = id*nullSide + v
	}
	return id, nil
}

func (nullDomain) PointByID(id int) (core.Point, error) {
	if id < 0 || id >= nullSide*nullSide*nullSide {
		return nil, fmt.Errorf("bench-null: point ID %d out of range", id)
	}
	return core.Point{id / (nullSide * nullSide), id / nullSide % nullSide, id % nullSide}, nil
}

func (nullDomain) DefaultConfig(string) (dsa.Config, error) {
	return dsa.Config{Peers: 2, Rounds: 1, PerfRuns: 1, EncounterRuns: 1, Seed: 1}, nil
}

func (nullDomain) SampleOpponents(dsa.Config) []core.Point { return nil }

// nullScore spreads the ID over [0,1) with a full-width mantissa, so
// result files and wire bodies carry as many digits as real scores do.
func nullScore(id int) float64 {
	x := uint64(id)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return float64(x>>11) / (1 << 53)
}

func (d nullDomain) ScoreSlice(measure string, pts, _ []core.Point, _ dsa.Config) ([]float64, error) {
	if measure != nullMeasure {
		return nil, fmt.Errorf("bench-null: unknown measure %q", measure)
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		id, err := d.PointID(p)
		if err != nil {
			return nil, err
		}
		out[i] = nullScore(id)
	}
	return out, nil
}

func (nullDomain) Assemble(pts []core.Point, raw map[string][]float64) (*dsa.Scores, error) {
	vals := raw[nullMeasure]
	if len(vals) != len(pts) {
		return nil, fmt.Errorf("bench-null: %d values for %d points", len(vals), len(pts))
	}
	return &dsa.Scores{
		Domain: nullDomainName,
		Points: pts,
		Raw:    map[string][]float64{nullMeasure: vals},
		Values: map[string][]float64{nullMeasure: append([]float64(nil), vals...)},
	}, nil
}
