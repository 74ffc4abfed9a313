package job

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	"repro/internal/dsa"
)

// SweepFlags are the command-line flags that shape a sweep — which
// domain, which points, at what scale — and Spec is their one mapping to
// a job.Spec. dsa-sweep and dsa-grid serve register the same set and
// resolve it through the same function, so identical flags always mean
// identical specs; the grid's byte-identical-to-local guarantee depends
// on that.
type SweepFlags struct {
	Domain, Preset string
	Stride, Chunk  int
	Seed           int64
	// Scale overrides: Opponents < 0 and the others <= 0 keep the
	// preset's setting (Opponents 0 is meaningful: full round-robin).
	Opponents, Peers, Rounds, PerfRuns, EncounterRuns int
}

// RegisterSweepFlags registers the sweep-shaping flags on fs, -domain
// defaulting to defaultDomain.
func RegisterSweepFlags(fs *flag.FlagSet, defaultDomain string) *SweepFlags {
	f := &SweepFlags{}
	fs.StringVar(&f.Domain, "domain", defaultDomain, "design space to sweep, one of: "+strings.Join(dsa.Names(), ", "))
	fs.StringVar(&f.Preset, "preset", "quick", "quick or paper")
	fs.IntVar(&f.Stride, "stride", 1, "evaluate every Nth point of the space")
	fs.IntVar(&f.Opponents, "opponents", -1, "opponent panel size (0 = full round-robin)")
	fs.IntVar(&f.Peers, "peers", 0, "population size override")
	fs.IntVar(&f.Rounds, "rounds", 0, "rounds per run override")
	fs.IntVar(&f.PerfRuns, "perfruns", 0, "performance runs override")
	fs.IntVar(&f.EncounterRuns, "encruns", 0, "encounter runs override")
	fs.Int64Var(&f.Seed, "seed", 1, "master seed")
	fs.IntVar(&f.Chunk, "chunk", 0, "points per job task (0 = default)")
	return f
}

// Spec validates the flags and resolves them to the sweep they describe.
func (f *SweepFlags) Spec() (Spec, error) {
	if f.Stride < 1 {
		return Spec{}, errors.New("stride must be >= 1")
	}
	if f.Chunk < 0 {
		return Spec{}, fmt.Errorf("chunk must be >= 0 (0 = default), got %d", f.Chunk)
	}
	d, err := dsa.Get(f.Domain)
	if err != nil {
		return Spec{}, err
	}
	cfg, err := d.DefaultConfig(f.Preset)
	if err != nil {
		return Spec{}, err
	}
	cfg.Seed = f.Seed
	if f.Opponents >= 0 {
		cfg.Opponents = f.Opponents
	}
	if f.Peers > 0 {
		cfg.Peers = f.Peers
	}
	if f.Rounds > 0 {
		cfg.Rounds = f.Rounds
	}
	if f.PerfRuns > 0 {
		cfg.PerfRuns = f.PerfRuns
	}
	if f.EncounterRuns > 0 {
		cfg.EncounterRuns = f.EncounterRuns
	}
	return Spec{Domain: d, Points: dsa.StridePoints(d, f.Stride), Cfg: cfg, Chunk: f.Chunk}, nil
}
