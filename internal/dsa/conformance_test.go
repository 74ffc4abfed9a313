package dsa_test

// The domain conformance suite: the laws the engine layers rely on,
// stated once and run against every registered domain and the toy. A law
// is a list of named clauses, each a plain func(row) error, so it can also
// be pointed at a deliberately broken domain (TestLawsBite); each Test
// below runs its laws on every row as a subtest named after the domain,
// one sub-subtest per clause, and fails first if a registered domain has
// no row. A new domain inherits every law with one row of domainRows.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/pra"
)

// row is one domain's conformance sweep: every stride-th point of its
// space at a small fixed config, strided off the dimension sizes so every
// measure takes several distinct values.
type row struct {
	d      dsa.Domain
	cfg    dsa.Config
	stride int
}

func (r row) points() []core.Point { return dsa.StridePoints(r.d, r.stride) }
func (r row) panel() []core.Point  { return r.d.SampleOpponents(r.cfg) }

// domainRows is one row per registered domain, then the toy. The
// registered rows are also TestDomainGolden's sweeps, so their values are
// pinned and the rows never change.
var domainRows = []row{
	{pra.Domain(), dsa.Config{Peers: 14, Rounds: 60, PerfRuns: 2, EncounterRuns: 2, Opponents: 6, Seed: 1}, 150},
	{gossip.Domain(), dsa.Config{Peers: 12, Rounds: 40, PerfRuns: 2, EncounterRuns: 2, Opponents: 5, Seed: 7}, 7},
	{delivery.Domain(), dsa.Config{Peers: 8, Rounds: 300, PerfRuns: 3, EncounterRuns: 1, Seed: 3, Churn: 0.01}, 37},
	{newToyDomain(), dsa.Config{Peers: 6, Rounds: 10, PerfRuns: 2, EncounterRuns: 1, Opponents: 4, Seed: 1}, 1},
}

// rowsCoverRegistry reports a registered domain without a row.
func rowsCoverRegistry() error {
	for _, d := range dsa.Registered() {
		if !slices.ContainsFunc(domainRows, func(r row) bool { return r.d.Name() == d.Name() }) {
			return fmt.Errorf("registered domain %q has no row in domainRows", d.Name())
		}
	}
	return nil
}

// clause is one named part of a law.
type clause struct {
	name  string
	check func(row) error
}

// law is a list of clauses, each checked on its own.
type law []clause

// check runs every clause of l on r and returns the first failure.
func (l law) check(r row) error {
	for _, c := range l {
		if err := c.check(r); err != nil {
			return err
		}
	}
	return nil
}

// baselines holds what a law's clauses all compare against, computed once
// per row rather than once per clause.
var baselines sync.Map // key → func() (any, error)

// baseline is compute's result for r, shared by every clause that asks
// for it under the same name. Callers must not modify it.
func baseline[T any](r row, name string, compute func() (T, error)) (T, error) {
	key := fmt.Sprintf("%s|%s|%T|%+v|%d", name, r.d.Name(), r.d, r.cfg, r.stride)
	once, _ := baselines.LoadOrStore(key, sync.OnceValues(func() (any, error) { return compute() }))
	v, err := once.(func() (any, error))()
	return v.(T), err
}

// conform runs laws on every row, one subtest per domain and under it one
// per clause. The law tests run in parallel with each other: most laws
// score on one worker.
func conform(t *testing.T, laws ...law) {
	t.Parallel()
	if err := rowsCoverRegistry(); err != nil {
		t.Fatal(err)
	}
	for _, r := range domainRows {
		t.Run(r.d.Name(), func(t *testing.T) {
			for _, l := range laws {
				for _, c := range l {
					t.Run(c.name, func(t *testing.T) {
						if err := c.check(r); err != nil {
							t.Error(err)
						}
					})
				}
			}
		})
	}
}

func TestDomainContracts(t *testing.T)                      { conform(t, lawCodec, lawPresets) }
func TestScoreSliceConcatenation(t *testing.T)              { conform(t, lawIdentitySeeding) }
func TestScoreSlicesMatchesScoreSlice(t *testing.T)         { conform(t, lawJointScoring) }
func TestScoreSlicesUnknownMeasureRunsNothing(t *testing.T) { conform(t, lawJointUnknownMeasure) }
func TestScoreSliceErrors(t *testing.T)                     { conform(t, lawErrors) }
func TestAssembleContract(t *testing.T)                     { conform(t, lawAssemble) }
func TestEngineParity(t *testing.T)                         { conform(t, lawEngine) }
func TestCachedSweepByteIdentical(t *testing.T)             { conform(t, lawCache) }
func TestCSVRoundTrip(t *testing.T)                         { conform(t, lawCSV) }

// foreignPoint is a point of no domain's space: the first point with one
// coordinate too many.
func foreignPoint(d dsa.Domain) core.Point {
	return append(slices.Clone(d.Space().Enumerate()[0]), 0)
}

// firstDiff is the first index at which got and want differ bit for bit,
// or -1; a length mismatch differs at the shorter length.
func firstDiff(got, want []float64) int {
	for i := range min(len(got), len(want)) {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

func reversed[T any](xs []T) []T {
	out := slices.Clone(xs)
	slices.Reverse(out)
	return out
}

var (
	lawCodec               = law{{"codec", checkCodec}}
	lawPresets             = law{{"presets", checkPresets}}
	lawJointScoring        = law{{"joint", checkJointScoring}}
	lawJointUnknownMeasure = law{{"unknown", checkJointUnknownMeasure}}
	lawErrors              = law{{"errors", checkErrors}}
	lawAssemble            = law{{"assemble", checkAssemble}}
	lawCSV                 = law{{"csv", checkCSV}}

	// lawCache: a sweep through a score cache, cold and then warm from
	// the reopened store, gives the uncached JSON and CSV, and the warm
	// one scores nothing. A (measure, ID) key is never the key of the
	// same pair under the same config and panel in another registered
	// domain.
	lawCache = law{{"sweep", checkCachedSweep}, {"keys", checkCacheKeys}}

	// lawEngine: through job.Run, chunking, sharding and resuming never
	// move a byte. Chunks of 1 and 5 give the same scores; 2, 3 and 4
	// shards sharing a checkpoint dir, and a job.Load of it, give the
	// unsharded JSON and CSV; a one-worker run cancelled after k tasks
	// resumes without re-running them, to the same scores.
	lawEngine = law{
		{"chunk", checkChunks},
		{"shards2", checkShards(2)},
		{"shards3", checkShards(3)},
		{"shards4", checkShards(4)},
		{"resume", checkResume},
	}
)

// checkCodec: point IDs are unique, lie in [0, Size) and round-trip over
// the whole enumeration — checkpoints, CSVs, cache keys and seeds are
// written in them — and anything else is refused.
func checkCodec(r row) error {
	d := r.d
	all := d.Space().Enumerate()
	if len(all) == 0 || len(all) != d.Space().Size() {
		return fmt.Errorf("codec: the space enumerates %d points of %d", len(all), d.Space().Size())
	}
	seen := make([]bool, len(all))
	for _, p := range all {
		id, err := d.PointID(p)
		if err != nil {
			return fmt.Errorf("codec: %w", err)
		}
		if id < 0 || id >= len(all) || seen[id] {
			return fmt.Errorf("codec: point %v has ID %d, out of range or taken", p, id)
		}
		seen[id] = true
		if back, err := d.PointByID(id); err != nil || !back.Equal(p) {
			return fmt.Errorf("codec: ID %d decodes to %v (%v), want %v", id, back, err, p)
		}
	}
	for _, id := range []int{-1, len(all)} {
		if _, err := d.PointByID(id); err == nil {
			return fmt.Errorf("codec: ID %d decoded", id)
		}
	}
	if _, err := d.PointID(foreignPoint(d)); err == nil {
		return errors.New("codec: a foreign point has an ID")
	}
	return nil
}

// checkPresets: both named presets are valid configs; any other name is
// refused.
func checkPresets(r row) error {
	for _, preset := range []string{"quick", "paper"} {
		cfg, err := r.d.DefaultConfig(preset)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return fmt.Errorf("presets: %s: %w", preset, err)
		}
	}
	if _, err := r.d.DefaultConfig("no-such-preset"); err == nil {
		return errors.New("presets: an unknown preset was accepted")
	}
	return nil
}

// lawIdentitySeeding: a score is a function of its point and the panel as
// a set — never of what else shares the slice, where it sits, the panel's
// order (win counts are integers, so that is exact too) or the worker
// count. Per measure, bit for bit, the whole slice scored on one worker
// equals the points scored in random slices (singletons among them),
// reversed, against the reversed panel, and on four workers. This is what
// lets the engine cut a sweep into tasks anyhow.
var lawIdentitySeeding = law{
	seeding("slices", "in random slices", func(r row, m string, pts, panel []core.Point, one dsa.Config) ([]float64, error) {
		rng := rand.New(rand.NewSource(int64(len(pts) + len(m))))
		cuts := []int{1, 1 + rng.Intn(4), 1 + rng.Intn(4)}
		var out []float64
		for lo, k := 0, 0; lo < len(pts); k++ {
			hi := min(lo+cuts[k%len(cuts)], len(pts))
			vals, err := r.d.ScoreSlice(m, pts[lo:hi], panel, one)
			if err != nil {
				return nil, err
			}
			out, lo = append(out, vals...), hi
		}
		return out, nil
	}),
	seeding("reversed", "reversed", func(r row, m string, pts, panel []core.Point, one dsa.Config) ([]float64, error) {
		vals, err := r.d.ScoreSlice(m, reversed(pts), panel, one)
		return reversed(vals), err
	}),
	seeding("panel", "against the reversed panel", func(r row, m string, pts, panel []core.Point, one dsa.Config) ([]float64, error) {
		return r.d.ScoreSlice(m, pts, reversed(panel), one)
	}),
	seeding("workers", "on 4 workers", func(r row, m string, pts, panel []core.Point, one dsa.Config) ([]float64, error) {
		four := one
		four.Workers = 4
		return r.d.ScoreSlice(m, pts, panel, four)
	}),
}

// seeding is a clause of lawIdentitySeeding: per measure, the row's points
// scored as score says equal, bit for bit, the whole slice scored on one
// worker.
func seeding(name, how string, score func(r row, m string, pts, panel []core.Point, one dsa.Config) ([]float64, error)) clause {
	return clause{name, func(r row) error {
		pts, panel := r.points(), r.panel()
		one := r.cfg
		one.Workers = 1
		for _, m := range r.d.Measures() {
			want, err := baseline(r, "seeding "+m, func() ([]float64, error) { return r.d.ScoreSlice(m, pts, panel, one) })
			if err != nil {
				return fmt.Errorf("identity seeding: %s: %w", m, err)
			}
			got, err := score(r, m, pts, panel, one)
			if err != nil {
				return fmt.Errorf("identity seeding: %s scored %s: %w", m, how, err)
			}
			if i := firstDiff(got, want); i >= 0 {
				return fmt.Errorf("identity seeding: %s scored %s differs at point %d of %d", m, how, i, len(pts))
			}
		}
		return nil
	}}
}

// countingDomain wraps a domain and counts the points its scoring calls
// are handed. It is a JointScorer over the wrapped domain's
// dsa.ScoreSlices, so a joint domain still scores jointly through it.
type countingDomain struct {
	dsa.Domain
	points atomic.Int64
}

func (c *countingDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	c.points.Add(int64(len(pts)))
	return c.Domain.ScoreSlice(measure, pts, opponents, cfg)
}

func (c *countingDomain) ScoreSlices(measures []string, pts, opponents []core.Point, cfg dsa.Config) ([][]float64, error) {
	c.points.Add(int64(len(pts)))
	return dsa.ScoreSlices(c.Domain, measures, pts, opponents, cfg)
}

// checkJointScoring: dsa.ScoreSlices is ScoreSlice per measure, bit for
// bit, for random subsets of measures (the last trial repeating one) over
// random subsets of points, in random order — through a domain's
// JointScorer and through the fallback loop alike.
func checkJointScoring(r row) error {
	pool, panel := r.points(), r.panel()
	one, four := r.cfg, r.cfg
	one.Workers, four.Workers = 1, 4
	rng := rand.New(rand.NewSource(3))
	const trials = 3
	for trial := range trials {
		measures := slices.Clone(r.d.Measures())
		rng.Shuffle(len(measures), func(i, j int) { measures[i], measures[j] = measures[j], measures[i] })
		measures = measures[:1+rng.Intn(len(measures))]
		if trial == trials-1 {
			measures = append(measures, measures[0])
		}
		var pts []core.Point
		for _, i := range rng.Perm(len(pool))[:1+rng.Intn(len(pool))] {
			pts = append(pts, pool[i])
		}
		got, err := dsa.ScoreSlices(r.d, measures, pts, panel, four)
		if err != nil {
			return fmt.Errorf("joint scoring: %v: %w", measures, err)
		}
		for k, m := range measures {
			want, err := r.d.ScoreSlice(m, pts, panel, one)
			if err != nil {
				return fmt.Errorf("joint scoring: %s: %w", m, err)
			}
			if i := firstDiff(got[k], want); i >= 0 {
				return fmt.Errorf("joint scoring: %v over %d points: %s differs from its ScoreSlice at point %d", measures, len(pts), m, i)
			}
		}
	}
	return nil
}

// checkJointUnknownMeasure: dsa.ScoreSlices refuses an unknown measure,
// naming it, before anything is scored.
func checkJointUnknownMeasure(r row) error {
	spy := &countingDomain{Domain: r.d}
	_, err := dsa.ScoreSlices(spy, []string{r.d.Measures()[0], "no-such-measure"}, r.points(), r.panel(), r.cfg)
	if err == nil || !strings.Contains(err.Error(), "no-such-measure") {
		return fmt.Errorf("joint scoring: an unknown measure gave err = %v, want one naming it", err)
	}
	if n := spy.points.Load(); n != 0 {
		return fmt.Errorf("joint scoring: %d points scored before the unknown measure was refused", n)
	}
	return nil
}

// checkErrors: an unknown measure, a zero Config and a foreign point each
// make ScoreSlice fail rather than score.
func checkErrors(r row) error {
	pts, panel := r.points(), r.panel()
	if _, err := r.d.ScoreSlice("no-such-measure", pts, panel, r.cfg); err == nil {
		return errors.New("errors: an unknown measure was scored")
	}
	for _, m := range r.d.Measures() {
		if _, err := r.d.ScoreSlice(m, pts, panel, dsa.Config{}); err == nil {
			return fmt.Errorf("errors: %s scored under a zero Config", m)
		}
		if _, err := r.d.ScoreSlice(m, []core.Point{foreignPoint(r.d)}, panel, r.cfg); err == nil {
			return fmt.Errorf("errors: %s scored a foreign point", m)
		}
	}
	return nil
}

// rawScores scores every measure of the row's points.
func rawScores(r row) (map[string][]float64, error) {
	vecs, err := dsa.ScoreSlices(r.d, r.d.Measures(), r.points(), r.panel(), r.cfg)
	if err != nil {
		return nil, err
	}
	raw := map[string][]float64{}
	for k, m := range r.d.Measures() {
		raw[m] = vecs[k]
	}
	return raw, nil
}

// checkAssemble: Assemble returns a raw and an assembled vector of every
// measure, one value per point, in backing arrays of their own — neither
// each other's nor the caller's — and refuses a short or missing one.
func checkAssemble(r row) error {
	pts := r.points()
	raw, err := rawScores(r)
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	s, err := r.d.Assemble(pts, raw)
	if err == nil {
		err = s.Check(r.d)
	}
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	if len(s.Points) != len(pts) {
		return fmt.Errorf("assemble: %d points for %d", len(s.Points), len(pts))
	}
	const rawMark, valueMark = -1e300, -2e300 // values no domain produces
	for _, m := range r.d.Measures() {
		s.Raw[m][0], s.Values[m][0] = rawMark, valueMark
		if s.Raw[m][0] != rawMark || raw[m][0] == rawMark || raw[m][0] == valueMark {
			return fmt.Errorf("assemble: %s: Raw, Values and the input share a backing array", m)
		}
	}
	for _, m := range r.d.Measures() {
		short, missing := map[string][]float64{}, map[string][]float64{}
		for _, n := range r.d.Measures() {
			short[n] = raw[n]
			if n != m {
				missing[n] = raw[n]
			}
		}
		short[m] = raw[m][:len(pts)-1]
		for what, bad := range map[string]map[string][]float64{"short": short, "missing": missing} {
			if _, err := r.d.Assemble(pts, bad); err == nil {
				return fmt.Errorf("assemble: a %s %s vector was accepted", what, m)
			}
		}
	}
	return nil
}

// outputs is what a sweep hands its user: the Scores as JSON, then as
// the domain's CSV.
func outputs(d dsa.Domain, s *dsa.Scores) (string, error) {
	js, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	var csv bytes.Buffer
	if err := dsa.WriteCSV(&csv, d, s); err != nil {
		return "", err
	}
	return string(js) + "\n" + csv.String(), nil
}

// engineRun runs the row's sweep through job.Run.
func engineRun(ctx context.Context, r row, opts job.Options) (*dsa.Scores, error) {
	return job.Run(ctx, r.d, r.points(), r.cfg, opts)
}

// engineBaseline is the row's sweep in chunks of 1, unsharded and
// uninterrupted.
func engineBaseline(r row) (*dsa.Scores, error) {
	want, err := baseline(r, "engine", func() (*dsa.Scores, error) {
		return engineRun(context.Background(), r, job.Options{Chunk: 1})
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return want, nil
}

// checkChunks: chunks of 1 and 5 give the same scores.
func checkChunks(r row) error {
	want, err := engineBaseline(r)
	if err != nil {
		return err
	}
	if got, err := engineRun(context.Background(), r, job.Options{Chunk: 5}); err != nil || !reflect.DeepEqual(got, want) {
		return fmt.Errorf("engine: chunk 5 differs from chunk 1 (err %v)", err)
	}
	return nil
}

// checkShards: shards runs sharing a checkpoint dir leave all but the last
// incomplete, and the last shard and a job.Load of the dir give the
// unsharded JSON and CSV.
func checkShards(shards int) func(row) error {
	return func(r row) error {
		ctx := context.Background()
		want, err := engineBaseline(r)
		if err != nil {
			return err
		}
		wantOut, err := outputs(r.d, want)
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		dir, err := os.MkdirTemp("", "conformance-shards")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		var merged *dsa.Scores
		for i := range shards {
			s, err := engineRun(ctx, r, job.Options{Dir: dir, Chunk: 3, Shards: shards, ShardIndex: i})
			if i < shards-1 && !errors.Is(err, job.ErrIncomplete) || i == shards-1 && err != nil {
				return fmt.Errorf("engine: shard %d of %d: err = %v", i, shards, err)
			}
			merged = s
		}
		got := map[string]*dsa.Scores{"the last shard": merged}
		if _, err := dsa.Get(r.d.Name()); err == nil { // job.Load finds the domain in the registry
			if got["job.Load"], err = job.Load(dir); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		for what, s := range got {
			if out, err := outputs(r.d, s); err != nil || out != wantOut {
				return fmt.Errorf("engine: %s of %d shards is not the unsharded JSON and CSV (err %v)", what, shards, err)
			}
		}
		return nil
	}
}

// checkResume: a one-worker run cancelled after k tasks, for a few k,
// resumes without re-running them, to the uninterrupted scores.
func checkResume(r row) error {
	ctx := context.Background()
	want, err := engineBaseline(r)
	if err != nil {
		return err
	}
	total := len(job.Spec{Domain: r.d, Points: r.points(), Cfg: r.cfg, Chunk: 2}.Tasks())
	for _, k := range []int{1, total / 3, 2 * total / 3} {
		dir, err := os.MkdirTemp("", "conformance-resume")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cctx, cancel := context.WithCancel(ctx)
		_, err = engineRun(cctx, r, job.Options{Dir: dir, Chunk: 2, Workers: 1, Progress: func(p job.Progress) {
			if p.FreshTasks >= k {
				cancel()
			}
		}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("engine: cancelled after %d of %d tasks: err = %v", k, total, err)
		}
		var last job.Progress
		got, err := engineRun(ctx, r, job.Options{Dir: dir, Chunk: 2, Progress: func(p job.Progress) { last = p }})
		if err != nil {
			return fmt.Errorf("engine: resume after %d tasks: %w", k, err)
		}
		if last.FreshTasks >= last.TotalTasks {
			return fmt.Errorf("engine: resume after %d tasks re-ran %d of %d", k, last.FreshTasks, last.TotalTasks)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("engine: resumed after %d tasks to different scores", k)
		}
	}
	return nil
}

// checkCachedSweep: cold and warm cached sweeps are the uncached one, and
// the warm one scores nothing.
func checkCachedSweep(r row) error {
	ctx, pts := context.Background(), r.points()
	want, err := job.Run(ctx, r.d, pts, r.cfg, job.Options{Chunk: 4})
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	wantOut, err := outputs(r.d, want)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	dir, err := os.MkdirTemp("", "conformance-cache")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, pass := range []string{"cold", "warm"} {
		store, err := cache.Open(cache.Options{Dir: dir})
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		spy := &countingDomain{Domain: r.d}
		got, err := job.Run(ctx, spy, pts, r.cfg, job.Options{Chunk: 4, Cache: store})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("cache: %s: %w", pass, err)
		}
		if out, err := outputs(r.d, got); err != nil || out != wantOut {
			return fmt.Errorf("cache: the %s sweep is not the uncached JSON and CSV (err %v)", pass, err)
		}
		if n := spy.points.Load(); (pass == "warm") != (n == 0) {
			return fmt.Errorf("cache: the %s sweep scored %d points", pass, n)
		}
	}
	return nil
}

// checkCacheKeys: no (measure, ID) key of the row's domain is another
// registered domain's key for the same pair, config and panel.
func checkCacheKeys(r row) error {
	keyer := func(d dsa.Domain) (*dsa.ScoreKeyer, error) { return dsa.NewScoreKeyer(d, nil, r.cfg) }
	mine, err := keyer(r.d)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	measures := []string{"phantom"}
	for _, d := range dsa.Registered() {
		measures = append(measures, d.Measures()...)
	}
	for _, other := range dsa.Registered() {
		if other.Name() == r.d.Name() {
			continue
		}
		theirs, err := keyer(other)
		if err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		for _, m := range measures {
			for id := range 2 {
				if mine.Key(m, id) == theirs.Key(m, id) {
					return fmt.Errorf("cache: key of (%s, %d) collides with domain %s", m, id, other.Name())
				}
			}
		}
	}
	return nil
}

// checkCSV: WriteCSV → ReadCSV → WriteCSV is a byte fixed point and gives
// the points back, whichever layout the domain writes.
func checkCSV(r row) error {
	pts := r.points()
	raw, err := rawScores(r)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	s, err := r.d.Assemble(pts, raw)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	var first, second bytes.Buffer
	if err := dsa.WriteCSV(&first, r.d, s); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	back, err := dsa.ReadCSV(bytes.NewReader(first.Bytes()), r.d)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	if !slices.EqualFunc(back.Points, pts, core.Point.Equal) {
		return fmt.Errorf("csv: %d points read back as %v", len(pts), back.Points)
	}
	if err := dsa.WriteCSV(&second, r.d, back); err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return errors.New("csv: the file read back does not write the same bytes")
	}
	return nil
}

// offsetSeededToy seeds each point by its offset in the slice it is
// handed instead of its ID: whole-slice scores look fine, but a sweep cut
// into tasks no longer recombines.
type offsetSeededToy struct{ toyDomain }

func (d offsetSeededToy) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	return d.score(measure, pts, opponents, cfg, func(p core.Point) (int, error) {
		return slices.IndexFunc(pts, p.Equal), nil
	})
}

// zeroingToy scores measures jointly and loses the last one asked for: it
// comes back as zeros of the right length, with no error.
type zeroingToy struct{ toyDomain }

func (d zeroingToy) ScoreSlices(measures []string, pts, opponents []core.Point, cfg dsa.Config) ([][]float64, error) {
	out, err := dsa.ScoreSlices(d.toyDomain, measures, pts, opponents, cfg)
	if err == nil {
		out[len(out)-1] = make([]float64, len(pts))
	}
	return out, err
}

// TestLawsBite: each broken toy fails the law it breaks and keeps the one
// it does not, so a green suite means the laws hold, not that they are
// too weak to notice.
func TestLawsBite(t *testing.T) {
	for _, c := range []struct {
		name        string
		d           dsa.Domain
		breaks, not law
	}{
		{"seeded by slice offset", offsetSeededToy{newToyDomain()}, lawIdentitySeeding, lawJointScoring},
		{"joint scorer zeroes a measure", zeroingToy{newToyDomain()}, lawJointScoring, lawIdentitySeeding},
	} {
		mutant := domainRows[len(domainRows)-1] // the toy's row
		mutant.d = c.d
		if err := c.breaks.check(mutant); err == nil {
			t.Errorf("toy %s passes the law it breaks", c.name)
		} else {
			t.Logf("toy %s: %v", c.name, err)
		}
		if err := c.not.check(mutant); err != nil {
			t.Errorf("toy %s fails a law it keeps: %v", c.name, err)
		}
	}
}
