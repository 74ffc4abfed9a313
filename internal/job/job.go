// Package job is the sharded, checkpointed execution engine behind
// design-space sweeps, and the heuristic explorers that search a space
// as runs of small sweeps on it (explore.go). The paper's headline
// experiment — quantifying all 3270 file-swarming protocols at Section
// 4.3 scale — cost ~25 cluster-hours, so a sweep must be splittable
// across processes and machines and must survive interruption.
//
// The engine is domain-agnostic: it runs any dsa.Domain. A sweep
// decomposes into deterministic tasks, one (measure × point chunk)
// slice each, computed by the domain's ScoreSlice (the tasks of one
// chunk together, where the domain's measures share runs — see
// ExecTasks). Seeds derive from point identity (dsa.TaskSeed or an
// equivalent scheme), so task results are identical regardless of
// chunk size, shard count, worker count or scheduling order — sharded
// runs merge to byte-identical Scores.
//
// Point chunks — each with one task per measure — are distributed
// round-robin over opts.Shards shard processes; each process executes
// the tasks of its chunks on a bounded worker pool with context
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
	"strconv"
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

// ID returns the task's stable identifier, used as the checkpoint key:
// the bytes of fmt.Sprintf("%s-%05d-%05d", Measure, Lo, Hi).
func (t Task) ID() string {
	var buf [64]byte
	b := append(buf[:0], t.Measure...)
	b = appendPad5(append(b, '-'), t.Lo)
	b = appendPad5(append(b, '-'), t.Hi)
	return string(b)
}

// appendPad5 appends v as %05d prints it: zero-padded to five characters,
// a minus sign counting as one of them.
func appendPad5(b []byte, v int) []byte {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(v), 10)
	width := 5
	if v < 0 {
		b, digits, width = append(b, '-'), digits[1:], 4
	}
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
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

// Tasks enumerates the sweep's tasks in deterministic order: chunk by
// chunk, and within a chunk one task per measure in the domain's
// canonical order. Keeping a chunk's measures adjacent is what lets
// whoever executes a stretch of this list — a pool goroutine of
// ExecTasks, a shard of Run, a grid worker holding one lease — score
// them through one dsa.ScoreSlices call. Task IDs do not depend on the
// order, so checkpoints and WALs written under any order stay valid.
func (s Spec) Tasks() []Task {
	measures := s.Domain.Measures()
	chunks := (len(s.Points) + s.chunk() - 1) / s.chunk()
	out := make([]Task, 0, chunks*len(measures))
	for lo := 0; lo < len(s.Points); lo += s.chunk() {
		for _, m := range measures {
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
	// Points of this run's fresh tasks, by where their scores came from:
	// computed by the domain, or served by Options.Cache.
	PointsSimulated int
	PointsCached    int
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
	x := NewTaskIndex(spec)
	tasks := x.tasks

	sweep := opts.Trace.Start(0, "sweep").
		Str("domain", d.Name()).
		Int("points", int64(len(points))).
		Int("tasks", int64(len(tasks))).
		Int("shards", int64(shards)).
		Int("shard_index", int64(opts.ShardIndex))
	fresh := 0
	defer func() { sweep.Int("done", int64(fresh)).End() }()

	// results[i] holds the values of tasks[i] once it is done.
	results := make([][]float64, len(tasks))
	var cp *Checkpoint
	if opts.Dir != "" {
		var err error
		cp, err = openCheckpoint(opts.Dir, spec, x, shards, opts.ShardIndex)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		results = cp.done
	}
	restored := countDone(results)

	// Round-robin chunk ownership: chunk c — every measure's task over
	// it — belongs to shard c mod shards. Whole chunks, so that each
	// shard's ExecTasks sees a chunk's measures side by side and can
	// score them jointly (round-robin over task index would deal a
	// four-measure domain on four shards one measure of every chunk
	// each); interleaved rather than contiguous, and every shard gets
	// the same mix of cheap homogeneous and expensive tournament tasks,
	// so equally-sized shards take similar wall time.
	var mine []Task
	for i, t := range tasks {
		if (t.Lo/spec.chunk())%shards == opts.ShardIndex && results[i] == nil {
			mine = append(mine, t)
		}
	}

	if err := runPool(ctx, spec, x, mine, cp, results, restored, opts, sweep.ID(), &fresh); err != nil {
		return nil, err
	}
	have := restored + fresh
	if cp != nil && have < len(tasks) {
		// Concurrently running shards may have journalled more tasks
		// since we opened the checkpoint; pick them up so the shard
		// that finishes last assembles the full result.
		latest, err := readCompleted(opts.Dir, x, "")
		if err != nil {
			return nil, err
		}
		for i, vals := range latest {
			if vals != nil && results[i] == nil {
				results[i] = vals
				have++
			}
		}
	}
	if have < len(tasks) {
		return nil, fmt.Errorf("%w: %d of %d tasks done (merge after the remaining shards finish)",
			ErrIncomplete, have, len(tasks))
	}
	return x.Scores(results)
}

// countDone is the number of done tasks in results.
func countDone(results [][]float64) int {
	n := 0
	for _, vals := range results {
		if vals != nil {
			n++
		}
	}
	return n
}

// runPool executes the pending tasks on a bounded worker pool,
// journalling and recording each result as it lands; the first task or
// sink error, or a context cancellation, stops the pool. restored is the
// number of tasks results held before, freshOut counts those it adds.
func runPool(ctx context.Context, spec Spec, x TaskIndex, mine []Task, cp *Checkpoint, results [][]float64, restored int, opts Options, parent obs.SpanID, freshOut *int) error {
	start := time.Now()
	var (
		mu                sync.Mutex
		fresh             int
		simulated, cached int
	)
	execOpts := ExecOptions{Workers: opts.Workers, Cache: opts.Cache, Trace: opts.Trace, TraceParent: parent}
	// OnTask runs before its task's sink, on the same goroutine, so the
	// snapshot a task's sink reports already counts that task's points.
	execOpts.OnTask = func(st TaskStats) {
		mu.Lock()
		simulated += st.Simulated
		cached += st.CacheHits
		mu.Unlock()
	}
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
		results[x.Of(t)] = vals
		fresh++
		*freshOut = fresh
		snap := Progress{
			TotalTasks: len(x.tasks),
			DoneTasks:  restored + fresh,
			FreshTasks: fresh,
			MineTasks:  len(mine),
			Elapsed:    time.Since(start),

			PointsSimulated: simulated,
			PointsCached:    cached,
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
	// Cache, if non-nil, is consulted per point before the domain runs
	// and filled with what the domain computed. A task whose points
	// all hit skips simulation entirely; a partial hit simulates only
	// the missing points (safe because domains seed from point
	// identity — any subset recombines exactly).
	Cache dsa.ScoreCache
	// Trace, if non-nil, records a "task" span per executed task
	// (measure, point count, cache hits, simulated count) with
	// cache-lookup and simulate child spans, parented under
	// TraceParent. The task span covers compute only — sink time
	// (checkpoint fsync, grid upload) is the caller's to trace. Tasks
	// scored together are all in flight until their one joint call
	// returns, so their spans overlap (each runs from its own cache
	// lookup to the end of the group's compute) and the group's one
	// simulate span sits under the first task that missed; elapsed_us
	// on each task span is its TaskStats.Elapsed share, which is what
	// sums to the time spent.
	Trace       *obs.Recorder
	TraceParent obs.SpanID
	// OnTask, if non-nil, is called after each task completes, before
	// its sink. Unlike the sink it carries the cache attribution —
	// the seam worker metrics hang off. Called concurrently from pool
	// goroutines; must be safe for concurrent use.
	OnTask func(TaskStats)
	// OnUnit, if non-nil, is called after the last sink of each execution
	// unit (see ExecTasks), from the goroutine that ran it: everything the
	// unit produced has been handed over. A sink that only collects
	// results sends them on from here — the grid worker uploads a unit's
	// tasks as one body. Same concurrency as OnTask.
	OnUnit func()
}

// TaskStats is one completed task's accounting, as delivered to
// ExecOptions.OnTask.
type TaskStats struct {
	Task Task
	// Elapsed is the task's compute time (cache lookups + simulation).
	// Tasks scored together (see ExecTasks) each report an equal share
	// of their group's time: the group's cost is mostly the shared runs,
	// which belong to no one measure, and equal shares keep the sum over
	// tasks equal to the time actually spent.
	Elapsed   time.Duration
	CacheHits int // points served from the score cache
	Simulated int // points computed by the domain
}

// ExecTasks computes tasks on a bounded worker pool — the execution
// primitive shared by the local engine (Run) and the grid worker
// (internal/grid), so both parallelise a task batch identically. The
// pool is dsa.ParallelFor: workers claim units in order from one
// cursor, and the calling goroutine is one of them. Each task's values
// come from the domain (or the cache, see ExecOptions.Cache) and are
// handed to sink. Sink is called concurrently from the pool's
// goroutines (so slow sinks — fsyncs, uploads — overlap with
// computation and each other) and must be safe for concurrent use; the
// first sink or task error stops the pool.
//
// The unit of record is the task; the unit of execution is the point
// chunk. When the domain is a dsa.JointScorer, a run of consecutive
// tasks over the same [Lo,Hi) — what Spec.Tasks, a shard of Run and a
// default grid lease all produce — goes to one pool goroutine, which
// scores the run's measures in one dsa.ScoreSlices call so they share
// their simulation runs; every other task is a run of one through the
// same code. Sink, OnTask and the "task" span still happen once per
// task, with that task's values and an equal share of the run's time
// (TaskStats.Elapsed) — so per-measure worker latencies and manifest
// elapsed_ms of a fused group read alike and sum to the time spent.
// How a batch happens to be cut into runs changes speed only.
//
// Simulator state is pooled underneath this seam: the swarming
// domain's ScoreSlice runs cyclesim, whose every Run draws on one
// shared world pool, so the workers here reuse O(n²) simulation
// slabs across tasks instead of reallocating them per run. That reuse
// is invisible by contract — the simulators' golden-parity suites pin
// pooled and fresh runs to bit-equal results — which is also what
// keeps ExecOptions.Cache sound: a cache hit recorded by a pooled run
// and a cold recomputation are the same bytes.
func ExecTasks(ctx context.Context, spec Spec, tasks []Task, opts ExecOptions, sink func(t Task, values []float64, elapsed time.Duration) error) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	units := fuse(spec.Domain, tasks)
	workers := opts.Workers
	if workers <= 0 {
		workers = spec.Cfg.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	poolSize := min(workers, len(units))
	// A batch the pool runs all at once (no more units than workers)
	// gives every unit the full width, so a unit that outlasts the
	// others (two measures of unequal cost) still gets the cores they
	// leave idle. A longer batch keeps the cores busy by itself, and
	// inner width there only adds contention (about 10 % more CPU per
	// score on a strided swarming sweep). Inner worker count never
	// affects values, only speed.
	taskCfg := spec.Cfg
	taskCfg.Workers = 1
	if len(units) <= workers {
		taskCfg.Workers = workers
	}
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

	// The first error cancels: a unit checks ctx before it starts, so
	// after a failure no unit starts beyond those already claimed.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	dsa.ParallelFor(len(units), poolSize, func(i int) {
		if ctx.Err() != nil {
			return
		}
		if err := execUnit(spec, units[i], opponents, taskCfg, keyer, opts, sink); err != nil {
			cancel(err)
		}
	})
	return context.Cause(ctx)
}

// fuse cuts tasks into execution units: maximal runs of consecutive
// tasks over one point range when the domain can score measures
// jointly, single tasks otherwise.
func fuse(d dsa.Domain, tasks []Task) [][]Task {
	_, joint := d.(dsa.JointScorer)
	units := make([][]Task, 0, len(tasks))
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for joint && hi < len(tasks) && tasks[hi].Lo == tasks[lo].Lo && tasks[hi].Hi == tasks[lo].Hi {
			hi++
		}
		units = append(units, tasks[lo:hi])
		lo = hi
	}
	return units
}

// taskRun is one task's state while its unit executes.
type taskRun struct {
	span *obs.Span
	vals []float64
	miss []int // indices into the unit's points the cache did not serve
}

// execUnit produces the values of every task of one unit (tasks over
// one point range) and delivers each task: with a cache, each task's
// cached points are read back first; then one dsa.ScoreSlices call
// scores the union of the points any task still misses, for the
// measures of the tasks that miss any — point-identity seeding makes
// every such recombination exact — and each task takes (and records in
// the cache) exactly the values it missed. Cached and computed values
// are byte-identical by the domain determinism contract, which the
// parity tests pin down. Each task gets a "task" span, from its own
// "cache-lookup" child to the end of the unit's compute; the unit's one
// "simulate" span sits under the first task that missed.
func execUnit(spec Spec, unit []Task, opponents []core.Point, cfg dsa.Config, keyer *dsa.ScoreKeyer, opts ExecOptions, sink func(t Task, values []float64, elapsed time.Duration) error) error {
	start := time.Now()
	pts := spec.Points[unit[0].Lo:unit[0].Hi]
	runs := make([]taskRun, len(unit))
	// abandon fails the unit on behalf of task t, recycling the spans
	// started so far.
	abandon := func(t Task, err error) error {
		for _, r := range runs {
			r.span.Drop()
		}
		return fmt.Errorf("job: task %s: %w", t.ID(), err)
	}

	// A unit's tasks share its points, so their IDs are resolved once.
	var ids []int
	if opts.Cache != nil {
		ids = make([]int, len(pts))
		for i, p := range pts {
			var err error
			if ids[i], err = spec.Domain.PointID(p); err != nil {
				return abandon(unit[0], err)
			}
		}
	}

	var (
		missed   []int    // indices into unit of the tasks with a miss
		measures []string // their measures
	)
	needed := make([]bool, len(pts)) // union of the tasks' misses
	for k, t := range unit {
		r := &runs[k]
		r.span = opts.Trace.Start(opts.TraceParent, "task")
		r.vals = make([]float64, len(pts))
		if opts.Cache == nil {
			r.miss = make([]int, len(pts))
			for i := range pts {
				r.miss[i] = i
			}
		} else {
			lookup := opts.Trace.Start(r.span.ID(), "cache-lookup")
			for i, id := range ids {
				if v, ok := opts.Cache.Get(keyer.Key(t.Measure, id)); ok {
					r.vals[i] = v
				} else {
					r.miss = append(r.miss, i)
				}
			}
			lookup.Int("hits", int64(len(pts)-len(r.miss))).Int("misses", int64(len(r.miss))).End()
		}
		if len(r.miss) > 0 {
			missed = append(missed, k)
			measures = append(measures, t.Measure)
			for _, i := range r.miss {
				needed[i] = true
			}
		}
	}

	if len(missed) > 0 {
		missPts := make([]core.Point, 0, len(pts))
		pos := make([]int, len(pts)) // index into pts → index into missPts
		for i, need := range needed {
			if need {
				pos[i] = len(missPts)
				missPts = append(missPts, pts[i])
			}
		}
		sim := opts.Trace.Start(runs[missed[0]].span.ID(), "simulate").
			Int("points", int64(len(missPts))).Int("measures", int64(len(measures)))
		computed, err := dsa.ScoreSlices(spec.Domain, measures, missPts, opponents, cfg)
		if err != nil {
			sim.Drop()
			return abandon(unit[missed[0]], err)
		}
		sim.End()
		for j, k := range missed {
			if len(computed[j]) != len(missPts) {
				return abandon(unit[k], fmt.Errorf("domain returned %d values for %d points", len(computed[j]), len(missPts)))
			}
			r := &runs[k]
			for _, i := range r.miss {
				r.vals[i] = computed[j][pos[i]]
				if opts.Cache != nil {
					opts.Cache.Put(keyer.Key(unit[k].Measure, ids[i]), r.vals[i])
				}
			}
		}
	}

	// Every task span ends before any sink runs: the task span measures
	// compute, not checkpointing or upload.
	elapsed := time.Since(start) / time.Duration(len(unit))
	for k, t := range unit {
		r := &runs[k]
		if r.span == nil {
			continue // untraced: no task ID to format
		}
		r.span.Str("task", t.ID()).
			Str("measure", t.Measure).
			Int("points", int64(len(pts))).
			Int("cache_hits", int64(len(pts)-len(r.miss))).
			Int("simulated", int64(len(r.miss))).
			Int("elapsed_us", elapsed.Microseconds()).
			End()
	}
	for k, t := range unit {
		if opts.OnTask != nil {
			simulated := len(runs[k].miss)
			opts.OnTask(TaskStats{Task: t, Elapsed: elapsed, CacheHits: len(pts) - simulated, Simulated: simulated})
		}
		if err := sink(t, runs[k].vals, elapsed); err != nil {
			return err
		}
	}
	if opts.OnUnit != nil {
		opts.OnUnit()
	}
	return nil
}

// AssembleScores is TaskIndex.Scores for a caller that holds per-task
// value slices by task ID.
func (s Spec) AssembleScores(results map[string][]float64) (*dsa.Scores, error) {
	x := NewTaskIndex(s)
	done := make([][]float64, len(x.tasks))
	for i, t := range x.tasks {
		done[i] = results[t.ID()]
	}
	return x.Scores(done)
}

// Scores stitches per-task value slices — done[i] the values of
// Tasks()[i] — into the spec's merged Scores, handing the domain the
// whole-set post-processing last: the assembly of Run, Load and the grid
// coordinator, so their sweeps merge byte-identically.
func (x TaskIndex) Scores(done [][]float64) (*dsa.Scores, error) {
	spec := x.spec
	raw := make(map[string][]float64, len(x.measures))
	for _, m := range x.measures {
		raw[m] = make([]float64, len(spec.Points))
	}
	for i, t := range x.tasks {
		switch vals := done[i]; {
		case vals == nil:
			return nil, fmt.Errorf("job: task %s missing from results", t.ID())
		case len(vals) != t.Hi-t.Lo:
			return nil, fmt.Errorf("job: task %s has %d values, want %d", t.ID(), len(vals), t.Hi-t.Lo)
		default:
			copy(raw[t.Measure][t.Lo:t.Hi], vals)
		}
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
	spec, err := readSpec(dir)
	if err != nil {
		return nil, err
	}
	x := NewTaskIndex(spec)
	done, err := readCompleted(dir, x, "")
	if err != nil {
		return nil, err
	}
	if n := countDone(done); n < len(x.tasks) {
		return nil, fmt.Errorf("%w: %d of %d tasks done in %s", ErrIncomplete, n, len(x.tasks), dir)
	}
	return x.Scores(done)
}
