// Package job is the sharded, checkpointed execution engine behind
// design-space sweeps. The paper's headline experiment — quantifying
// all 3270 file-swarming protocols at Section 4.3 scale — cost ~25
// cluster-hours, so a sweep must be splittable across processes and
// machines and must survive interruption.
//
// The engine is domain-agnostic: it runs any dsa.Domain. A sweep
// decomposes into deterministic tasks, one (measure × point chunk)
// slice each, computed by the domain's ScoreSlice. Seeds derive from
// point identity (dsa.TaskSeed or an equivalent scheme), so task
// results are identical regardless of chunk size, shard count, worker
// count or scheduling order — sharded runs merge to byte-identical
// Scores.
//
// Tasks are distributed round-robin over opts.Shards shard processes;
// each process executes its share on a bounded worker pool with context
// cancellation, checkpointing every completed task as one line of an
// append-only JSONL manifest (see checkpoint.go). Restarting with the
// same checkpoint directory skips completed tasks and merges their
// cached values; the process whose run completes the final outstanding
// task assembles and returns the full Scores, while earlier shards
// return ErrIncomplete.
package job

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// DefaultChunk is the number of points per task: small enough that a
// paper-scale sweep yields hundreds of tasks (fine-grained progress,
// cheap loss on interruption), large enough to amortise bookkeeping.
const DefaultChunk = 32

// Task is one schedulable unit: compute one measure for the half-open
// point index range [Lo,Hi) of the sweep's point list.
type Task struct {
	Measure string
	Lo, Hi  int
}

// ID returns the task's stable identifier, used as the checkpoint key.
func (t Task) ID() string {
	return fmt.Sprintf("%s-%05d-%05d", t.Measure, t.Lo, t.Hi)
}

// Spec pins down a sweep completely: the domain, the point list, the
// sweep configuration and the chunking. Two runs with equal specs
// enumerate equal task lists and produce equal results.
type Spec struct {
	Domain dsa.Domain
	Points []core.Point
	Cfg    dsa.Config
	Chunk  int // points per task; 0 = DefaultChunk
}

func (s Spec) chunk() int {
	if s.Chunk > 0 {
		return s.Chunk
	}
	return DefaultChunk
}

// Tasks enumerates the sweep's tasks in deterministic order: point
// chunks of each measure, measures in the domain's canonical order.
func (s Spec) Tasks() []Task {
	var out []Task
	for _, m := range s.Domain.Measures() {
		for lo := 0; lo < len(s.Points); lo += s.chunk() {
			out = append(out, Task{Measure: m, Lo: lo, Hi: min(lo+s.chunk(), len(s.Points))})
		}
	}
	return out
}

// Progress is a snapshot passed to the Options.Progress callback after
// every completed task.
type Progress struct {
	TotalTasks int           // tasks in the whole sweep, across all shards
	DoneTasks  int           // completed overall: checkpoint-restored + this run's
	FreshTasks int           // completed by this process during this run
	MineTasks  int           // tasks this process owns (fresh + still pending)
	Elapsed    time.Duration // since this Run started
	ETA        time.Duration // projected remaining time for this process's tasks
}

// Options controls sharding, checkpointing and reporting. The zero
// value runs the whole sweep in-process with no checkpointing.
type Options struct {
	Dir        string // checkpoint directory; "" disables checkpointing
	Shards     int    // total shard processes; <= 0 means 1
	ShardIndex int    // this process's shard in [0,Shards)
	Chunk      int    // points per task; 0 = DefaultChunk
	Workers    int    // task-level workers; 0 = Cfg.Workers or GOMAXPROCS
	// Cache, if non-nil, memoises raw scores across runs: every task
	// consults it per point before simulating and records what it
	// computed (see dsa.ScoreCache and internal/cache). Values are
	// identical with or without a cache — the cache key covers
	// everything a score is a function of, so a stale or foreign
	// entry is a miss, never a wrong hit.
	Cache dsa.ScoreCache
	// Progress, if non-nil, is called after every completed task.
	// Calls are serialized (never concurrent), but may come from any
	// worker goroutine; keep the callback fast — it blocks result
	// recording.
	Progress func(Progress)
	// Trace, if non-nil, records the sweep: a "sweep" root span for the
	// whole Run plus a "task" span per executed task with cache-lookup
	// and simulate children (see internal/obs). Tracing never changes
	// results — traced and untraced sweeps are byte-identical.
	Trace *obs.Recorder
}

// ErrIncomplete reports that this process's share of the sweep is done
// and checkpointed, but tasks owned by other shards are still
// outstanding, so the merged Scores cannot be assembled yet.
var ErrIncomplete = errors.New("job: sweep incomplete")

// Run executes the sweep of the given domain over points (nil points
// means the domain's whole space) under the given options and returns
// the merged Scores once every task of every shard is accounted for.
//
// With Options.Dir set, completed tasks are read back from the
// checkpoint before any work starts and each fresh task is persisted as
// it finishes, so a killed or cancelled run resumes where it left off.
// If this process finishes its shard while other shards' tasks remain,
// Run returns ErrIncomplete (wrapped with counts).
func Run(ctx context.Context, d dsa.Domain, points []core.Point, cfg dsa.Config, opts Options) (*dsa.Scores, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if points == nil {
		points = d.Space().Enumerate()
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	if opts.ShardIndex < 0 || opts.ShardIndex >= shards {
		return nil, fmt.Errorf("job: shard index %d out of range [0,%d)", opts.ShardIndex, shards)
	}
	spec := Spec{Domain: d, Points: points, Cfg: cfg, Chunk: opts.Chunk}
	tasks := spec.Tasks()

	sweep := opts.Trace.Start(0, "sweep").
		Str("domain", d.Name()).
		Int("points", int64(len(points))).
		Int("tasks", int64(len(tasks))).
		Int("shards", int64(shards)).
		Int("shard_index", int64(opts.ShardIndex))
	done := 0
	defer func() { sweep.Int("done", int64(done)).End() }()

	results := make(map[string][]float64, len(tasks))
	var cp *Checkpoint
	if opts.Dir != "" {
		var err error
		cp, err = openCheckpoint(opts.Dir, spec, shards, opts.ShardIndex)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		for id, vals := range cp.completed {
			results[id] = vals
		}
	}

	// Round-robin task ownership: task i belongs to shard i mod shards.
	// Interleaving (rather than contiguous ranges) spreads the cheap
	// homogeneous tasks and the expensive tournament tasks evenly, so
	// equally-sized shards take similar wall time.
	var mine []Task
	for i, t := range tasks {
		if i%shards != opts.ShardIndex {
			continue
		}
		if _, done := results[t.ID()]; done {
			continue
		}
		mine = append(mine, t)
	}

	if err := runPool(ctx, spec, mine, cp, results, opts, len(tasks), sweep.ID(), &done); err != nil {
		return nil, err
	}
	if cp != nil && len(results) < len(tasks) {
		// Concurrently running shards may have journalled more tasks
		// since we opened the checkpoint; pick them up so the shard
		// that finishes last assembles the full result.
		latest, err := readCompleted(opts.Dir, spec)
		if err != nil {
			return nil, err
		}
		for id, vals := range latest {
			if _, ok := results[id]; !ok {
				results[id] = vals
			}
		}
	}
	if len(results) < len(tasks) {
		return nil, fmt.Errorf("%w: %d of %d tasks done (merge after the remaining shards finish)",
			ErrIncomplete, len(results), len(tasks))
	}
	return assemble(spec, results)
}

// runPool executes the pending tasks on a bounded worker pool,
// journalling and recording each result as it lands; the first task or
// sink error, or a context cancellation, stops the pool.
func runPool(ctx context.Context, spec Spec, mine []Task, cp *Checkpoint, results map[string][]float64, opts Options, total int, parent obs.SpanID, freshOut *int) error {
	start := time.Now()
	var (
		mu    sync.Mutex
		fresh int
	)
	execOpts := ExecOptions{Workers: opts.Workers, Cache: opts.Cache, Trace: opts.Trace, TraceParent: parent}
	return ExecTasks(ctx, spec, mine, execOpts, func(t Task, vals []float64, elapsed time.Duration) error {
		// The checkpoint write runs concurrently across pool workers —
		// Record serialises the append and shares the fsync; only the
		// in-memory bookkeeping and the Progress callback (whose
		// contract is "serialized") go under mu.
		if cp != nil {
			if err := cp.Record(t, vals, elapsed); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		results[t.ID()] = vals
		fresh++
		*freshOut = fresh
		snap := Progress{
			TotalTasks: total,
			DoneTasks:  len(results),
			FreshTasks: fresh,
			MineTasks:  len(mine),
			Elapsed:    time.Since(start),
		}
		if left := len(mine) - fresh; left > 0 {
			snap.ETA = time.Duration(int64(snap.Elapsed) / int64(fresh) * int64(left))
		}
		if opts.Progress != nil {
			opts.Progress(snap)
		}
		return nil
	})
}

// ExecOptions controls one ExecTasks invocation.
type ExecOptions struct {
	// Workers is the pool width; <= 0 falls back to spec.Cfg.Workers,
	// then GOMAXPROCS.
	Workers int
	// Cache, if non-nil, is consulted per point before ScoreSlice runs
	// and filled with what ScoreSlice computed. A task whose points
	// all hit skips simulation entirely; a partial hit simulates only
	// the missing points (safe because ScoreSlice seeds from point
	// identity — any subset recombines exactly).
	Cache dsa.ScoreCache
	// Trace, if non-nil, records a "task" span per executed task
	// (measure, point count, cache hits, simulated count) with
	// cache-lookup and simulate child spans, parented under
	// TraceParent. The task span covers compute only — sink time
	// (checkpoint fsync, grid upload) is the caller's to trace.
	Trace       *obs.Recorder
	TraceParent obs.SpanID
	// OnTask, if non-nil, is called after each task completes, before
	// its sink. Unlike the sink it carries the cache attribution —
	// the seam worker metrics hang off. Called concurrently from pool
	// goroutines; must be safe for concurrent use.
	OnTask func(TaskStats)
}

// TaskStats is one completed task's accounting, as delivered to
// ExecOptions.OnTask.
type TaskStats struct {
	Task      Task
	Elapsed   time.Duration // compute time (cache lookups + simulation)
	CacheHits int           // points served from the score cache
	Simulated int           // points computed by ScoreSlice
}

// ExecTasks computes tasks on a bounded worker pool — the execution
// primitive shared by the local engine (Run) and the grid worker
// (internal/grid), so both parallelise a task batch identically. Each
// task's values come from the domain's ScoreSlice (or the cache, see
// ExecOptions.Cache) and are handed to sink. Sink is called
// concurrently from the pool's goroutines (so slow sinks — fsyncs,
// uploads — overlap with computation and each other) and must be safe
// for concurrent use; the first sink or task error stops the pool.
//
// Simulator state is pooled underneath this seam: the swarming
// domain's ScoreSlice runs cyclesim with its shared world pool
// (internal/cyclesim.Pool), so the workers here reuse O(n²) simulation
// slabs across tasks instead of reallocating them per run. That reuse
// is invisible by contract — the simulators' golden-parity suites pin
// pooled and fresh runs to bit-equal results — which is also what
// keeps ExecOptions.Cache sound: a cache hit recorded by a pooled run
// and a cold recomputation are the same bytes.
func ExecTasks(ctx context.Context, spec Spec, tasks []Task, opts ExecOptions, sink func(t Task, values []float64, elapsed time.Duration) error) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = spec.Cfg.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolSize := min(workers, len(tasks))
	// Parallelism lives at the task level; when there are fewer tasks
	// than workers, give each task's inner ScoreSlice the spare share
	// so small sweeps still use the machine. Inner worker count never
	// affects values, only speed.
	taskCfg := spec.Cfg
	taskCfg.Workers = max(1, workers/poolSize)
	opponents := spec.Domain.SampleOpponents(spec.Cfg)
	var keyer *dsa.ScoreKeyer
	if opts.Cache != nil {
		// Key on spec.Cfg, not taskCfg: the keyer hashes only the
		// score-relevant fields and the two differ in Workers alone,
		// but keying on the canonical config keeps that invariant
		// independent of how the pool splits parallelism.
		var err error
		if keyer, err = dsa.NewScoreKeyer(spec.Domain, opponents, spec.Cfg); err != nil {
			return fmt.Errorf("job: score cache key: %w", err)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		firstEr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		mu.Unlock()
		cancel()
	}
	next := make(chan Task)
	wg.Add(poolSize)
	for w := 0; w < poolSize; w++ {
		go func() {
			defer wg.Done()
			for t := range next {
				if ctx.Err() != nil {
					return
				}
				taskStart := time.Now()
				span := opts.Trace.Start(opts.TraceParent, "task")
				vals, hits, err := execTask(spec, t, opponents, taskCfg, keyer, opts.Cache, opts.Trace, span.ID())
				if err != nil {
					span.Drop()
					fail(fmt.Errorf("job: task %s: %w", t.ID(), err))
					return
				}
				elapsed := time.Since(taskStart)
				simulated := (t.Hi - t.Lo) - hits
				// End before the sink: the task span measures compute,
				// not checkpointing or upload.
				span.Str("task", t.ID()).
					Str("measure", t.Measure).
					Int("points", int64(t.Hi-t.Lo)).
					Int("cache_hits", int64(hits)).
					Int("simulated", int64(simulated)).
					End()
				opts.Trace.CountTask(1)
				opts.Trace.CountSimulated(simulated)
				opts.Trace.CountCached(hits)
				if opts.OnTask != nil {
					opts.OnTask(TaskStats{Task: t, Elapsed: elapsed, CacheHits: hits, Simulated: simulated})
				}
				if err := sink(t, vals, elapsed); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
feed:
	for _, t := range tasks {
		select {
		case next <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}

// execTask produces one task's values: straight from ScoreSlice
// without a cache; with one, cached points are read back and only the
// misses are simulated (as a single ScoreSlice call over the miss
// subset — point-identity seeding makes the recombination exact), then
// recorded. Cached and computed values are byte-identical by the
// domain determinism contract, which the parity tests pin down.
// Returns the number of points served from the cache alongside the
// values; rec (nil-safe) gets "cache-lookup" and "simulate" child
// spans under parent.
func execTask(spec Spec, t Task, opponents []core.Point, cfg dsa.Config, keyer *dsa.ScoreKeyer, cache dsa.ScoreCache, rec *obs.Recorder, parent obs.SpanID) ([]float64, int, error) {
	pts := spec.Points[t.Lo:t.Hi]
	if cache == nil {
		sim := rec.Start(parent, "simulate").Int("points", int64(len(pts)))
		vals, err := spec.Domain.ScoreSlice(t.Measure, pts, opponents, cfg)
		if err != nil {
			sim.Drop()
			return nil, 0, err
		}
		sim.End()
		return vals, 0, nil
	}
	lookup := rec.Start(parent, "cache-lookup")
	keys := make([]dsa.CacheKey, len(pts))
	vals := make([]float64, len(pts))
	miss := make([]int, 0, len(pts))
	for i, p := range pts {
		id, err := spec.Domain.PointID(p)
		if err != nil {
			lookup.Drop()
			return nil, 0, err
		}
		keys[i] = keyer.Key(t.Measure, id)
		if v, ok := cache.Get(keys[i]); ok {
			vals[i] = v
		} else {
			miss = append(miss, i)
		}
	}
	hits := len(pts) - len(miss)
	lookup.Int("hits", int64(hits)).Int("misses", int64(len(miss))).End()
	if len(miss) == 0 {
		return vals, hits, nil
	}
	missPts := pts
	if len(miss) < len(pts) {
		missPts = make([]core.Point, len(miss))
		for j, i := range miss {
			missPts[j] = pts[i]
		}
	}
	sim := rec.Start(parent, "simulate").Int("points", int64(len(missPts)))
	computed, err := spec.Domain.ScoreSlice(t.Measure, missPts, opponents, cfg)
	if err != nil {
		sim.Drop()
		return nil, 0, err
	}
	sim.End()
	if len(computed) != len(missPts) {
		return nil, 0, fmt.Errorf("job: ScoreSlice returned %d values for %d points", len(computed), len(missPts))
	}
	for j, i := range miss {
		vals[i] = computed[j]
		cache.Put(keys[i], computed[j])
	}
	return vals, hits, nil
}

// AssembleScores stitches per-task value slices (task ID → values)
// into this spec's merged Scores. It is the same assembly Run and Load
// perform, exported for the grid coordinator, which collects task
// results over HTTP instead of computing them — so grid sweeps merge
// byte-identically with local ones.
func (s Spec) AssembleScores(results map[string][]float64) (*dsa.Scores, error) {
	return assemble(s, results)
}

// assemble stitches per-task value slices into the merged Scores,
// handing the domain the whole-set post-processing last.
func assemble(spec Spec, results map[string][]float64) (*dsa.Scores, error) {
	raw := make(map[string][]float64, len(spec.Domain.Measures()))
	for _, m := range spec.Domain.Measures() {
		raw[m] = make([]float64, len(spec.Points))
	}
	for _, t := range spec.Tasks() {
		vals, ok := results[t.ID()]
		if !ok {
			return nil, fmt.Errorf("job: task %s missing from results", t.ID())
		}
		if len(vals) != t.Hi-t.Lo {
			return nil, fmt.Errorf("job: task %s has %d values, want %d", t.ID(), len(vals), t.Hi-t.Lo)
		}
		copy(raw[t.Measure][t.Lo:t.Hi], vals)
	}
	return spec.Domain.Assemble(spec.Points, raw)
}

// Load reassembles the Scores of a checkpointed sweep — possibly
// written by several shard processes whose manifests share (or were
// copied into) dir — without running any simulation. The domain is
// resolved from the checkpoint spec through the dsa registry, so the
// calling program must import the domain's package. It returns
// ErrIncomplete (wrapped with counts) if tasks are still outstanding.
func Load(dir string) (*dsa.Scores, error) {
	spec, results, err := loadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if n := len(spec.Tasks()); len(results) < n {
		return nil, fmt.Errorf("%w: %d of %d tasks done in %s", ErrIncomplete, len(results), n, dir)
	}
	return assemble(spec, results)
}
