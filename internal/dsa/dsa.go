// Package dsa defines the domain-agnostic sweep API of Design Space
// Analysis. The paper's central claim (Sections 3 and 7) is that the
// Parameterization/Actualization/analysis machinery is independent of
// the domain being analysed: the same solution concept that quantifies
// the file-swarming space of Section 4 applies verbatim to the gossip
// space of Section 3.1, or to any other distributed-system design
// space.
//
// This package is where that claim becomes an interface. A Domain
// packages everything the engine layers need to know about a design
// space:
//
//   - its core.Space (Parameterization + Actualization),
//   - a stable point ↔ integer-ID codec (the checkpoint key),
//   - the list of measure kinds its solution concept computes
//     (file swarming: performance/robustness/aggressiveness;
//     gossip: coverage/robustness),
//   - a deterministic ScoreSlice evaluator, the unit the job engine
//     shards: raw scores of one measure for an arbitrary slice of
//     points, seeded from point identity so any partition of the work
//     recombines into byte-identical results (ScoreSlices scores
//     several measures of a slice at once, sharing their runs where
//     the domain is a JointScorer),
//   - an Assemble step for whole-set post-processing (e.g. the paper's
//     min-max performance normalisation, which needs every value).
//
// What every domain would otherwise repeat is here too: Base carries the
// declared half of a Domain (codec, presets, measure table, Assemble),
// and concept.go the solution concept itself — how homogeneous runs and
// tournament games are seeded, repeated, averaged and won — so a domain
// package holds only its space, its simulator and what a population is.
//
// Everything above a Domain — the sharded checkpointed job engine and
// the heuristic explorers that run on it (internal/job), the
// sweep/report CLIs, the repro facade — is written against this
// interface and therefore works for every registered domain:
// implementing a Domain buys sharding, resume, merge and the tooling for
// free.
package dsa

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Config is the domain-independent sweep scale: the result-affecting
// knobs every domain maps onto its own simulator. The names come from
// the file-swarming quantification (Section 4.3), but each domain
// interprets them in its own terms — for gossip, Peers is nodes per
// run and PerfRuns averages coverage runs. The zero value is not valid;
// start from Domain.DefaultConfig.
type Config struct {
	Peers         int     // population size per simulation run
	Rounds        int     // rounds per simulation run
	PerfRuns      int     // runs averaged per homogeneous measure value
	EncounterRuns int     // runs per tournament encounter
	Opponents     int     // opponents per tournament; 0 = every other point
	Seed          int64   // master seed; task seeds derive from it and point identity
	Churn         float64 // per-round churn rate; domains without churn ignore it
	Workers       int     // parallel workers; 0 = GOMAXPROCS. Speed only, never values.
}

// Parallelism resolves the Workers contract: the configured worker
// count, or GOMAXPROCS when Workers is 0. Domains pass this to
// ParallelFor so the contract has a single implementation.
func (c Config) Parallelism() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// StridePoints enumerates every stride-th point of the domain's space
// (stride 1 = the whole space). There is no step smaller than one point,
// so a stride below 1 reads as 1; the CLIs reject it before they get
// here.
func StridePoints(d Domain, stride int) []core.Point {
	all := d.Space().Enumerate()
	var out []core.Point
	for i := 0; i < len(all); i += max(stride, 1) {
		out = append(out, all[i])
	}
	return out
}

// Validate checks the scale knobs shared by every domain.
func (c Config) Validate() error {
	if c.Peers < 2 {
		return fmt.Errorf("dsa: need at least 2 peers, got %d", c.Peers)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("dsa: need at least 1 round, got %d", c.Rounds)
	}
	if c.PerfRuns < 1 || c.EncounterRuns < 1 {
		return fmt.Errorf("dsa: PerfRuns and EncounterRuns must be >= 1")
	}
	if c.Opponents < 0 {
		return fmt.Errorf("dsa: Opponents must be >= 0, got %d", c.Opponents)
	}
	if math.IsNaN(c.Churn) || c.Churn < 0 || c.Churn > 1 {
		// The seed silently treated negative/NaN churn as 0 and let
		// churn > 1 saturate; domains now get an explicit error before
		// any simulation (cyclesim rejects it at its own boundary too).
		return fmt.Errorf("dsa: Churn must be in [0,1], got %v", c.Churn)
	}
	return nil
}

// Scores is the assembled result of a sweep: per-measure value vectors
// aligned with Points. Raw holds the values as ScoreSlice produced
// them; Values holds the post-Assemble form (normalised where the
// domain's solution concept calls for it, identical to Raw otherwise).
type Scores struct {
	Domain string
	Points []core.Point
	Raw    map[string][]float64
	Values map[string][]float64
}

// Measure returns the assembled value vector of one measure (nil if
// the measure is unknown).
func (s *Scores) Measure(name string) []float64 { return s.Values[name] }

// Check reports whether s is a complete result of d: d's scores, with a
// raw and an assembled value of every measure for every point. Code
// that indexes the vectors by point (the CSV writers, the figure
// extractors) checks once and then indexes freely.
func (s *Scores) Check(d Domain) error {
	if s.Domain != d.Name() {
		return fmt.Errorf("dsa: scores are for domain %q, not %q", s.Domain, d.Name())
	}
	for _, m := range d.Measures() {
		if len(s.Raw[m]) != len(s.Points) || len(s.Values[m]) != len(s.Points) {
			return fmt.Errorf("dsa: measure %q has %d/%d values for %d points", m, len(s.Raw[m]), len(s.Values[m]), len(s.Points))
		}
	}
	return nil
}

// Domain packages one design space and its solution concept for the
// generic engine layers. Implementations must be safe for concurrent
// use: the job engine calls ScoreSlice from many workers at once.
type Domain interface {
	// Name is the stable identifier used in checkpoint specs, CLI
	// -domain flags and the registry. Lower-case, no spaces.
	Name() string

	// Space returns the design space (Parameterization/Actualization).
	Space() *core.Space

	// PointID and PointByID are a stable codec between points and
	// integer IDs; checkpoints persist IDs, so the mapping must never
	// change for a given domain name.
	PointID(p core.Point) (int, error)
	PointByID(id int) (core.Point, error)

	// Label renders a point for humans and CSVs (e.g. the protocol
	// code "2-1-Loyal-When needed").
	Label(p core.Point) string

	// Measures lists the measure kinds of the domain's solution
	// concept in canonical order. The list is part of the checkpoint
	// spec (a directory written under another list is rejected), and
	// its order is the order of a chunk's tasks in job.Spec.Tasks —
	// so it is also the order a grid lease hands a chunk's measures
	// to one worker, which is what lets a JointScorer share their runs.
	Measures() []string

	// DefaultConfig returns the domain's configuration for a named
	// preset ("quick" or "paper").
	DefaultConfig(preset string) (Config, error)

	// SampleOpponents returns the tournament opponent panel for cfg —
	// deterministic, so every task of a sweep sees the same panel.
	SampleOpponents(cfg Config) []core.Point

	// ScoreSlice computes the raw scores of one measure for pts, a
	// slice of a (possibly larger) point set. Seeds must derive from
	// point identity, not position, so that concatenating slice
	// results equals a single full-set call — this is the primitive
	// the job engine cuts into tasks.
	ScoreSlice(measure string, pts, opponents []core.Point, cfg Config) ([]float64, error)

	// Assemble bundles per-measure raw vectors into Scores, applying
	// any whole-set normalisation. Every measure must be present and
	// match len(pts).
	Assemble(pts []core.Point, raw map[string][]float64) (*Scores, error)
}

// JointScorer is an optional Domain extension, like ScoreVersioned: a
// domain whose measures are views of the same simulation runs scores
// several of them in one call and runs each point's shared simulations
// once, where one ScoreSlice call per measure would repeat them.
//
// The contract is ScoreSlice's, per measure: out[k] is bit-equal to
// ScoreSlice(measures[k], pts, opponents, cfg) for every subset and
// order of measures (repeats included) and every subset of points —
// seeds derive from point identity, so whatever grouping a schedule
// produces recombines exactly. An unknown measure is an error before
// any simulation runs.
type JointScorer interface {
	ScoreSlices(measures []string, pts, opponents []core.Point, cfg Config) ([][]float64, error)
}

// ScoreSlices scores several measures over one point slice and returns
// one value vector per measure, aligned with measures: through the
// domain's JointScorer when it has one, otherwise by one ScoreSlice call
// per measure. Callers that hold more than one measure of the same
// points (job.ExecTasks, over a chunk's tasks) call this and get the
// sharing where the domain offers it.
func ScoreSlices(d Domain, measures []string, pts, opponents []core.Point, cfg Config) ([][]float64, error) {
	known := d.Measures()
	for _, m := range measures {
		if !slices.Contains(known, m) {
			return nil, fmt.Errorf("dsa: domain %q has no measure %q (measures: %v)", d.Name(), m, known)
		}
	}
	if j, ok := d.(JointScorer); ok {
		out, err := j.ScoreSlices(measures, pts, opponents, cfg)
		if err == nil && len(out) != len(measures) {
			err = fmt.Errorf("dsa: domain %q scored %d measures, asked for %d", d.Name(), len(out), len(measures))
		}
		return out, err
	}
	out := make([][]float64, len(measures))
	for k, m := range measures {
		vals, err := d.ScoreSlice(m, pts, opponents, cfg)
		if err != nil {
			return nil, err
		}
		out[k] = vals
	}
	return out, nil
}

// registry holds the known domains. Registration normally happens in
// the domain packages' init functions, so importing a domain package
// makes it available to the CLIs and to job.Load.
var (
	regMu    sync.RWMutex
	registry = map[string]Domain{}
)

// Register adds a domain under its Name. It panics on a duplicate
// name — two domains claiming one name would corrupt checkpoints.
func Register(d Domain) {
	regMu.Lock()
	defer regMu.Unlock()
	name := d.Name()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("dsa: domain %q registered twice", name))
	}
	registry[name] = d
}

// Get returns the registered domain with the given name.
func Get(name string) (Domain, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("dsa: unknown domain %q (known: %v); is its package imported?", name, names())
	}
	return d, nil
}

// Registered returns every registered domain, sorted by name.
func Registered() []Domain {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Domain, 0, len(registry))
	for _, n := range names() {
		out = append(out, registry[n])
	}
	return out
}

// Names returns the sorted names of every registered domain — what the
// CLIs print in -domain flag help and what Get's unknown-domain error
// lists.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return names()
}

// names returns the sorted registered names; callers hold regMu.
func names() []string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// mix64 is a splitmix64-style hash used to derive independent task
// seeds from sweep coordinates.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TaskSeed derives a simulation seed from the master seed and work-item
// identity (point IDs a and b, run index, measure discriminator). The
// derivation depends only on identity, never on position or schedule,
// which is what makes domain ScoreSlice results recombine exactly.
//
// TaskSeed is total: every int input is defined, including negative
// IDs or run indices (they mix in as their two's-complement bit
// patterns — deterministic, no wrapping surprises), and the result is
// always non-negative (the sign bit is cleared) so it is safe for
// seed parameters that reject negatives. Pinned by tests.
func TaskSeed(master int64, a, b, run, kind int) int64 {
	h := mix64(uint64(master))
	h = mix64(h ^ uint64(a)*0x100000001b3)
	h = mix64(h ^ uint64(b)*0x1000193)
	h = mix64(h ^ uint64(run)<<8 ^ uint64(kind))
	return int64(h &^ (1 << 63))
}

// SamplePanel returns a fixed opponent panel: n elements drawn
// deterministically and evenly from all. Even strides keep the panel
// representative of every region of the space; the offset derives from
// the master seed. Domains without a bespoke panel policy build
// SampleOpponents on this — it is generic over the element type so
// domains can sample their native protocol representation as well as
// core.Point.
//
// Edge sizes are policy, not accident (changing any of these would
// silently change sweep values, so they are pinned by tests):
//
//	n == 0          → the full set: 0 means "no panel cap", the
//	                  paper's full round-robin (Config.Opponents
//	                  documents the same convention)
//	n < 0           → the full set, same as 0 (Config.Validate
//	                  rejects negative Opponents before a sweep
//	                  starts; a direct caller gets the permissive
//	                  reading rather than a panic)
//	n >= len(all)   → the full set: a panel cannot exceed the
//	                  population, and at n == len(all) sampling
//	                  would only reorder it
//	len(all) == 0   → empty, whatever n is
func SamplePanel[T any](all []T, n int, seed int64) []T {
	if len(all) == 0 {
		return all
	}
	if n <= 0 || n >= len(all) {
		return all
	}
	out := make([]T, 0, n)
	offset := int(mix64(uint64(seed)) % uint64(len(all)))
	for j := 0; j < n; j++ {
		idx := (offset + j*len(all)/n) % len(all)
		out = append(out, all[idx])
	}
	return out
}

// ParallelFor runs fn(i) for i in [0,n) on w workers (w <= 1 means
// serial, inline). Workers claim indices in ascending order from one
// atomic cursor, and the calling goroutine is one of them. Results must
// not depend on scheduling; domains use it to parallelise ScoreSlice
// over points, and the job engine to run its execution units.
func ParallelFor(n, w int, fn func(i int)) {
	if w = min(w, n); w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
