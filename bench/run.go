package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/gridobs"
)

const (
	// defaultSeconds is the timed window per workload, BENCHMARK.json's
	// run_seconds: as long as three gated workloads, 70 driver runs and
	// their set-ups leave inside the driver's 3420 s.
	defaultSeconds = 34
	// A run sets the workload up at least setupReps times, and again
	// until setupFill seconds have gone into set-ups or setupMaxReps are
	// done: the one-second set-ups are the ones a stalled fsync moves
	// most, and their median needs more than three. setup_s is the median.
	setupReps    = 3
	setupMaxReps = 6
	setupFill    = 4.0
	// reloadsPerSweep reloads at least follow every timed sweep, and more
	// while they have cost less than reloadShare of the sweep's wall:
	// reload_s is the fastest of them all, and the fastest of a few
	// hundred is steady where the fastest of a few dozen is not.
	reloadsPerSweep = 20
	reloadShare     = 0.1
	// tracedSweeps is the minimum number of untraced/traced sweep pairs
	// of a traced run; short sweeps repeat until a quarter of -seconds
	// has passed, up to tracedMaxSweeps pairs.
	tracedSweeps    = 3
	tracedMaxSweeps = 40
)

// metric is one reported number. N is the sample count behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

// unitResult is the outcome of one workload in one mode (end to end
// with tracing off, or per layer with tracing on).
type unitResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstFail string            `json:"first_failure,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info carries printed-but-ungated numbers (failed_share, sweep count, sweep and reload medians, sweep.tail_s).
	Info map[string]metric `json:"info,omitempty"`
}

func (r *unitResult) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *unitResult) setNote(name string, v float64, unit string, n int, note string) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

func (r *unitResult) fail(format string, args ...any) {
	r.Failed++
	if r.FirstFail == "" {
		r.FirstFail = fmt.Sprintf(format, args...)
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// leakSlack is how many descriptors or goroutines a timed window may
// end above where it began (a connection still closing, a GC worker).
const leakSlack = 8

// countFDs is the number of file descriptors this process holds open
// (0 where /proc is not mounted, which disables the check).
func countFDs() int {
	entries, _ := os.ReadDir("/proc/self/fd")
	return len(entries)
}

// sweepSample is one measured sweep with its reloads.
type sweepSample struct {
	wall, cpu float64 // seconds
	disk      int64
	out       sweepOut
	reloads   []float64 // seconds
}

// measureSweep runs one sweep from a fresh state directory, checks its
// bytes against the reference, measures the disk it left and reloads it
// at least `reloads` times (0 = not at all), checking those bytes too. Failures are counted on r;
// only a cancelled context or an unusable workdir is an error.
func measureSweep(ctx context.Context, e *env, inst *instance, st *sweepTrace, reloads int, r *unitResult) (sweepSample, error) {
	var s sweepSample
	dir, err := e.freshDir("sweep")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)

	cpu0, t0 := cpuSeconds(), time.Now()
	s.out, err = inst.sweep(ctx, dir, st)
	s.wall, s.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if ctx.Err() != nil {
		return s, ctx.Err()
	}
	r.Attempted++
	switch {
	case err != nil:
		r.fail("sweep: %v", err)
	case !bytes.Equal(s.out.csv, inst.wantSweep):
		r.fail("sweep: CSV bytes differ from the reference (got %s, want %s)", digest(s.out.csv), digest(inst.wantSweep))
	}
	// The bytes are checked. Kept with the sample they would grow the heap
	// by one CSV per sweep, and the collector's pace — and with it the
	// sweep time — would drift along the window.
	s.out.csv = nil
	if err != nil {
		return s, nil // nothing durable worth reloading
	}
	if s.disk, err = dirBytes(inst.diskDir(dir)); err != nil {
		return s, err
	}
	var spent float64
	for i := 0; i < reloads || (reloads > 0 && spent < reloadShare*s.wall); i++ {
		t0 := time.Now()
		got, err := inst.reload(dir)
		s.reloads = append(s.reloads, time.Since(t0).Seconds())
		spent += s.reloads[i]
		r.Attempted++
		switch {
		case err != nil:
			r.fail("reload: %v", err)
		case !bytes.Equal(got, inst.wantReload):
			r.fail("reload: CSV bytes differ from the reference")
		}
	}
	return s, nil
}

// prepare is one full set-up: everything before the first timed sweep —
// point enumeration, reference CSV, cache fill and an untimed warm-up
// sweep that pays for lazy initialisation (Enumerate's sync.Once, the
// simulators' world pools) and must already be correct.
func prepare(ctx context.Context, e *env, w workload) (*instance, error) {
	inst, err := w.setup(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if e.seed == goldenSeed {
		if err := checkGolden(w.name, inst.ref); err != nil {
			inst.cleanup()
			return nil, err
		}
	}
	warm := &unitResult{}
	if _, err := measureSweep(ctx, e, inst, nil, 1, warm); err != nil {
		inst.cleanup()
		return nil, err
	}
	if warm.Failed > 0 {
		inst.cleanup()
		return nil, fmt.Errorf("%s warm-up: %s", w.name, warm.FirstFail)
	}
	return inst, nil
}

// sweepsFor repeats measured sweeps until d has passed (the sweep in
// flight finishes) and at least atLeast sweeps ran.
func sweepsFor(ctx context.Context, e *env, inst *instance, d time.Duration, atLeast, reloads int, r *unitResult) ([]sweepSample, error) {
	var out []sweepSample
	for start := time.Now(); time.Since(start) < d || len(out) < atLeast; {
		s, err := measureSweep(ctx, e, inst, nil, reloads, r)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func column(samples []sweepSample, f func(sweepSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func wallOf(s sweepSample) float64 { return s.wall }

func newUnitResult(e *env, w workload, seconds float64, traced bool) *unitResult {
	return &unitResult{Workload: w.name, Traced: traced, Seed: e.seed, Seconds: seconds,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
}

// runEndToEnd measures the end-to-end metrics of one workload, tracing off.
func runEndToEnd(ctx context.Context, e *env, w workload, seconds float64) (*unitResult, error) {
	r := newUnitResult(e, w, seconds, false)
	var (
		inst   *instance
		setups []float64
	)
	for spent := 0.0; len(setups) < setupReps || (spent < setupFill && len(setups) < setupMaxReps); {
		if inst != nil {
			inst.cleanup()
		}
		t0 := time.Now()
		var err error
		if inst, err = prepare(ctx, e, w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer inst.cleanup()

	fds, goroutines := countFDs(), runtime.NumGoroutine()
	samples, err := sweepsFor(ctx, e, inst, time.Duration(seconds*float64(time.Second)), 1, reloadsPerSweep, r)
	if err != nil {
		return nil, err
	}
	// Every sweep closes what it opens: hundreds of sweeps later the
	// process must hold what it held before the first.
	r.Attempted++
	if f, g := countFDs(), runtime.NumGoroutine(); f > fds+leakSlack || g > goroutines+leakSlack {
		r.fail("leak across %d sweeps: fds %d -> %d, goroutines %d -> %d", len(samples), fds, f, goroutines, g)
	}
	walls := column(samples, wallOf)
	var reloads []float64
	for _, s := range samples {
		reloads = append(reloads, s.reloads...)
	}
	n := len(samples)
	scores := float64(inst.scores)
	// The three timings are the fastest sample of the window, not its
	// median: what the shared host adds to a sweep comes and goes by the
	// minute, so the median of a window follows the host and the fastest
	// sample follows the program (README, "Why the fastest sample").
	// The medians and the tail are printed beside them.
	r.set("scores_per_s", scores/fastest(walls), "1/s", n)
	r.set("cpu_s_per_kscore", fastest(column(samples, func(s sweepSample) float64 { return s.cpu }))/(scores/1000), "s", n)
	r.set("reload_s", fastest(reloads), "s", len(reloads))
	r.set("disk_bytes_per_score", median(column(samples, func(s sweepSample) float64 { return float64(s.disk) }))/scores, "B", n)
	r.set("setup_s", median(setups), "s", len(setups))

	tailV, tailName := tail(walls)
	r.Info["failed_share"] = metric{Value: float64(r.Failed) / float64(r.Attempted), Unit: "share", N: r.Attempted}
	r.Info["sweeps"] = metric{Value: float64(n), Unit: "count", N: n}
	r.Info["sweep.median_s"] = metric{Value: median(walls), Unit: "s", N: n}
	r.Info["sweep.tail_s"] = metric{Value: tailV, Unit: "s", N: n, Note: tailName}
	r.Info["reload.median_s"] = metric{Value: median(reloads), Unit: "s", N: len(reloads)}
	return r, nil
}

// runPerLayer measures the per-layer metrics of one workload: pairs of
// an untraced and a traced sweep (the budget, and trace.overhead_share
// as the difference between the two), then the layer probes.
func runPerLayer(ctx context.Context, e *env, w workload, seconds float64, spansOut string) (*unitResult, error) {
	r := newUnitResult(e, w, seconds, true)
	probeEnumerate(r)
	inst, err := prepare(ctx, e, w)
	if err != nil {
		return nil, err
	}
	defer inst.cleanup()

	plainWall, err := runPairs(ctx, e, inst, time.Duration(seconds/4*float64(time.Second)), spansOut, r)
	if err != nil {
		return nil, err
	}
	if err := runProbes(ctx, e, r); err != nil {
		return nil, err
	}
	// The ratio ROADMAP item 1 wants tracked; a layer metric so that a
	// faster simulator never reads as an end-to-end regression.
	eff := 0.0
	if w.name == wlDeliveryGridDurable {
		eff = float64(inst.scores) / plainWall / r.Metrics["delivery.raw_scores_per_s"].Value
	}
	r.set("grid.efficiency", eff, "share", r.Metrics["trace.overhead_share"].N)
	return r, nil
}

// runPairs alternates untraced and traced sweeps for the window (at
// least tracedSweeps pairs) and derives from them the runtime numbers,
// the cache hit ratio, the budget and, on the grid workload, the HTTP,
// WAL, lease and worker metrics. Metrics of layers the workload never
// enters are reported as 0. It returns the median untraced sweep wall.
func runPairs(ctx context.Context, e *env, inst *instance, window time.Duration, spansOut string, r *unitResult) (float64, error) {
	t := newTracer()
	seam := newSeamCounter()
	hs := newHTTPStats()
	shares := map[string][]float64{}
	var (
		plainWalls, tracedWalls, computeShares []float64
		hits, misses, allocBytes, pauseNS      uint64
	)
	for start := time.Now(); len(tracedWalls) < tracedSweeps || (time.Since(start) < window && len(tracedWalls) < tracedMaxSweeps); {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plain, err := measureSweep(ctx, e, inst, nil, 0, r)
		if err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		plainWalls = append(plainWalls, plain.wall)
		hits, misses = hits+plain.out.hits, misses+plain.out.misses
		allocBytes += after.TotalAlloc - before.TotalAlloc
		pauseNS += after.PauseTotalNs - before.PauseTotalNs

		// The writer seam is process-global: it is on for the traced sweep only.
		restore := seam.install()
		st := &sweepTrace{t: t, http: hs, worker: gridobs.NewWorkerMetrics(nil)}
		t.sweep.Store(int64(len(tracedWalls) + 1))
		mark := t.count()
		root := t.begin(0, "sweep", layerNone)
		t.scope.Store(root.s.ID)
		traced, err := measureSweep(ctx, e, inst, st, 0, r)
		whole := root.end()
		restore()
		if err != nil {
			return 0, err
		}
		tracedWalls = append(tracedWalls, traced.wall)
		sh := layerShares(t.since(mark), e.p, whole.End-whole.Start)
		if taskSeconds := workerTaskSeconds(st.worker); taskSeconds > 0 {
			// On the grid the simulator runs inside grid.Work, out of the
			// decorator's reach: the worker's own task clock stands in.
			compute := taskSeconds / (float64(e.p) * traced.wall)
			sh[layerSim] += compute
			sh["untraced"] -= compute
			computeShares = append(computeShares, compute)
		}
		for layer, v := range sh {
			shares[layer] = append(shares[layer], v)
		}
	}
	n := len(tracedWalls)
	kscores := float64(inst.scores) * float64(n) / 1000
	r.set("runtime.heap_alloc_mb_per_kscore", float64(allocBytes)/(1<<20)/kscores, "MB", n)
	r.set("runtime.gc_pause_ms", float64(pauseNS)*nsToMS/float64(n), "ms", n)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	r.set("cache.hit_ratio", ratio, "share", int(hits+misses))
	for _, layer := range append([]string{"untraced"}, budgetLayers...) {
		r.set("budget."+layer+"_share", median(shares[layer]), "share", n)
	}
	plainWall := median(plainWalls)
	r.set("trace.overhead_share", median(tracedWalls)/plainWall-1, "share", n)
	if spansOut != "" {
		if err := t.writeJSONL(spansOut); err != nil {
			return 0, err
		}
	}

	// Grid-only metrics; all 0 on the local workloads, which never open a socket.
	tasks := float64(len(hs.client["results"]))
	perTask := func(v int64) float64 {
		if tasks == 0 {
			return 0
		}
		return float64(v) / tasks
	}
	for _, kind := range []string{"lease", "results"} {
		tailV, tailName := tail(hs.client[kind])
		r.set("grid.http."+kind+"_us_p50", median(hs.client[kind]), "us", len(hs.client[kind]))
		r.setNote("grid.http."+kind+"_us_tail", tailV, "us", len(hs.client[kind]), tailName)
		r.set("grid.server."+kind+"_us_p50", median(hs.server[kind]), "us", len(hs.server[kind]))
	}
	r.set("grid.http.request_bytes_per_task", perTask(hs.reqBytes), "B", int(tasks))
	r.set("grid.http.response_bytes_per_task", perTask(hs.respBytes), "B", int(tasks))
	walCalls, walBytes := seam.snapshot(fileWAL)
	r.set("grid.wal.bytes_per_task", perTask(walBytes), "B", int(tasks))
	r.set("grid.wal.write_calls_per_task", perTask(walCalls), "count", int(tasks))
	perLease, empty := 0.0, 0.0
	if hs.leases > 0 {
		perLease = float64(hs.granted) / float64(hs.leases)
		empty = float64(hs.emptyLeases) / float64(hs.leases)
	}
	r.set("grid.lease.tasks_per_request", perLease, "count", hs.leases)
	r.set("grid.lease.empty_share", empty, "share", hs.leases)
	compute, idle := 0.0, 0.0
	if len(computeShares) > 0 {
		compute = median(computeShares)
		idle = 1 - compute
	}
	r.set("grid.worker.compute_share", compute, "share", len(computeShares))
	r.set("grid.worker.idle_share", idle, "share", len(computeShares))
	return plainWall, nil
}

// workerTaskSeconds sums the task compute time a worker metrics set saw.
func workerTaskSeconds(m *gridobs.WorkerMetrics) float64 {
	var total float64
	for _, h := range m.Snapshot().TaskSeconds {
		total += h.Sum
	}
	return total
}
