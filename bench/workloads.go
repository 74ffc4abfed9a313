package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/exp"
	"repro/internal/gossip"
	"repro/internal/grid"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/pra"
)

// Workload names. Later issues refer to them; do not rename.
const (
	wlSwarmingLocalCold    = "swarming-local-cold"
	wlDeliveryLocalDurable = "delivery-local-durable"
	wlDeliveryGridDurable  = "delivery-grid-durable"
	wlMixedWarmResweep     = "mixed-warm-resweep"
)

// sweepChunk is the points-per-task of every timed sweep.
const sweepChunk = 8

// env is what every workload and probe shares: the one concurrency
// number, the seed and the directory all temporary state lives under.
type env struct {
	p       int   // job pool width = grid worker count = HTTP connection count
	seed    int64 // picks the order of every sweep's point list
	workdir string
	dirSeq  atomic.Int64
}

// freshDir returns a new empty directory under the workdir.
func (e *env) freshDir(prefix string) (string, error) {
	dir := filepath.Join(e.workdir, fmt.Sprintf("%s-%d", prefix, e.dirSeq.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// workload is one sweep workload. The gated ones are BENCHMARK.json's
// workloads, the ones the driver runs; the others run by name or with
// -workload all (README, "Which workloads the driver runs").
type workload struct {
	name  string
	why   string
	gated bool
	setup func(ctx context.Context, e *env) (*instance, error)
}

// sweepTrace is what a traced sweep records into; nil means untraced.
type sweepTrace struct {
	t      *tracer
	http   *httpStats
	worker *gridobs.WorkerMetrics
}

// tracerOf is nil-safe: an untraced sweep has no tracer.
func (st *sweepTrace) tracerOf() *tracer {
	if st == nil {
		return nil
	}
	return st.t
}

// sweepOut is what one sweep delivers.
type sweepOut struct {
	csv          []byte // the final CSV bytes (several CSVs concatenated for mixed-warm-resweep)
	hits, misses uint64 // score cache lookups during the sweep
}

// instance is a workload after set-up: the reference bytes and the
// closures that run one sweep and one reload against a state directory.
type instance struct {
	scores     int    // scores delivered into the CSV bytes per sweep
	ref        []byte // reference CSV bytes, built without job, cache or grid
	wantSweep  []byte // what every sweep must deliver
	wantReload []byte // what every reload must deliver
	// sweep runs one full pass from a fresh state (dir is new and empty)
	// to the final CSV bytes, closing everything it opened.
	sweep func(ctx context.Context, dir string, st *sweepTrace) (sweepOut, error)
	// reload brings the durable state a sweep left under dir back into a
	// fresh reader.
	reload func(dir string) ([]byte, error)
	// diskDir is the directory whose size is the sweep's disk footprint.
	diskDir func(dir string) string
	cleanup func()
}

// do runs fn under a span; on a nil tracer it just runs fn.
func (t *tracer) do(name, layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := t.beginScoped(name, layer)
	defer s.end()
	return fn()
}

// reference scores pts by whole-set ScoreSlice + Assemble and renders
// the CSV — the oracle path, which touches neither job, cache nor grid.
func reference(d dsa.Domain, pts []core.Point, cfg dsa.Config) (*dsa.Scores, []byte, error) {
	opponents := d.SampleOpponents(cfg)
	raw := make(map[string][]float64)
	for _, m := range d.Measures() {
		vals, err := d.ScoreSlice(m, pts, opponents, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s/%s: %w", d.Name(), m, err)
		}
		raw[m] = vals
	}
	scores, err := d.Assemble(pts, raw)
	if err != nil {
		return nil, nil, fmt.Errorf("reference %s: %w", d.Name(), err)
	}
	out, err := renderCSV(nil, d, scores)
	return scores, out, err
}

func renderCSV(t *tracer, d dsa.Domain, s *dsa.Scores) ([]byte, error) {
	var buf bytes.Buffer
	err := t.do("exp.WriteDomainCSV", layerAssemble, func() error { return exp.WriteDomainCSV(&buf, d, s) })
	return buf.Bytes(), err
}

// localSweep runs spec through the job engine in this process. Untraced
// it is job.Run. Traced it is the pipeline job.Run is built from —
// OpenCheckpoint, ExecTasks with Checkpoint.Record as the sink,
// AssembleScores — with a span around each call into a layer.
func localSweep(ctx context.Context, spec job.Spec, cpDir string, sc dsa.ScoreCache, p int, t *tracer) (*dsa.Scores, error) {
	if t == nil {
		return job.Run(ctx, spec.Domain, spec.Points, spec.Cfg,
			job.Options{Dir: cpDir, Chunk: spec.Chunk, Workers: p, Cache: sc})
	}
	spec.Domain = tracedDomain{Domain: spec.Domain, t: t}
	if sc != nil {
		sc = tracedCache{inner: sc, t: t}
	}
	var cp *job.Checkpoint
	if cpDir != "" {
		err := t.do("job.OpenCheckpoint", layerCheckpoint, func() (err error) {
			cp, err = job.OpenCheckpoint(cpDir, spec)
			return err
		})
		if err != nil {
			return nil, err
		}
		defer cp.Close()
	}
	var mu sync.Mutex
	results := make(map[string][]float64)
	exec := t.beginScoped("job.ExecTasks", layerNone)
	outer := t.scope.Swap(exec.s.ID)
	err := job.ExecTasks(ctx, spec, spec.Tasks(), job.ExecOptions{Workers: p, Cache: sc},
		func(task job.Task, vals []float64, elapsed time.Duration) error {
			if cp != nil {
				err := t.do("Checkpoint.Record", layerCheckpoint, func() error { return cp.Record(task, vals, elapsed) })
				if err != nil {
					return err
				}
			}
			mu.Lock()
			results[task.ID()] = vals
			mu.Unlock()
			return nil
		})
	t.scope.Store(outer)
	exec.end()
	if err != nil {
		return nil, err
	}
	var scores *dsa.Scores
	err = t.do("Spec.AssembleScores", layerAssemble, func() (err error) {
		scores, err = spec.AssembleScores(results)
		return err
	})
	return scores, err
}

// gridSweep runs spec through a coordinator on a loopback listener and
// `workers` grid.Work loops in this process, until WaitComplete.
// Everything it starts is stopped and closed before it returns.
func gridSweep(ctx context.Context, spec job.Spec, opts grid.CoordinatorOptions, workers int, st *sweepTrace) (*dsa.Scores, error) {
	coord := grid.NewCoordinator(opts)
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := coord.Handler()
	base := &http.Transport{MaxIdleConnsPerHost: workers}
	defer base.CloseIdleConnections()
	var rt http.RoundTripper = base
	var metrics *gridobs.WorkerMetrics
	if st != nil {
		handler = timingHandler(handler, st.t, st.http)
		rt = &timingTransport{base: base, t: st.t, stats: st.http}
		metrics = st.worker
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()

	// A worker that fails stops the wait: nobody else would finish its share.
	waitCtx, stopWait := context.WithCancel(ctx)
	defer stopWait()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		workerEr error
	)
	client := &http.Client{Timeout: grid.DefaultHTTPTimeout, Transport: rt}
	url := "http://" + ln.Addr().String()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := grid.Work(waitCtx, url, id, grid.WorkerOptions{
				// Fixed names: the default host-pid-N identity grows with
				// every sweep and would leak into the WAL's byte count.
				Name:    fmt.Sprintf("w%d", i),
				Workers: 1, Poll: 2 * time.Millisecond,
				Client: client, Metrics: metrics,
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				once.Do(func() { workerEr = err; stopWait() })
			}
		}()
	}
	scores, err := coord.WaitComplete(waitCtx, id)
	wg.Wait() // workers leave on their next lease call, which answers Complete
	if workerEr != nil {
		return nil, fmt.Errorf("grid worker: %w", workerEr)
	}
	return scores, err
}

// seeded returns pts in the order the seed picks. The seed decides the
// order of the point list and nothing else: which points end up in one
// task, and which task runs last, differ from seed to seed, while the
// set of scores — and so the simulation work — is the same, which is
// what lets runs on different seeds be compared. (Config.Seed is left
// at the preset's value for the same reason: it selects the opponent
// panel, and panels differ in cost by tens of percent.)
func seeded(pts []core.Point, seed int64) []core.Point {
	out := append([]core.Point(nil), pts...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func quickConfig(d dsa.Domain, e *env) (dsa.Config, error) {
	cfg, err := d.DefaultConfig("quick")
	cfg.Workers = e.p
	return cfg, err
}

func scoreCount(spec job.Spec) int { return len(spec.Points) * len(spec.Domain.Measures()) }

// loadCSV is the reload of the two local durable workloads.
func loadCSV(d dsa.Domain, dir string) ([]byte, error) {
	scores, err := job.Load(dir)
	if err != nil {
		return nil, err
	}
	return renderCSV(nil, d, scores)
}

func swarmingSpec(e *env) (job.Spec, error) {
	d := pra.Domain()
	cfg, err := quickConfig(d, e)
	cfg.Opponents = 12
	return job.Spec{Domain: d, Points: seeded(dsa.StridePoints(d, 40), e.seed), Cfg: cfg, Chunk: sweepChunk}, err
}

func deliverySpec(e *env) (job.Spec, error) {
	d := delivery.Domain()
	cfg, err := quickConfig(d, e)
	return job.Spec{Domain: d, Points: seeded(d.Space().Enumerate(), e.seed), Cfg: cfg, Chunk: sweepChunk}, err
}

func gossipSpec(e *env) (job.Spec, error) {
	d := gossip.Domain()
	cfg, err := quickConfig(d, e)
	cfg.Peers, cfg.Rounds, cfg.Opponents = 16, 60, 4
	return job.Spec{Domain: d, Points: seeded(d.Space().Enumerate(), e.seed), Cfg: cfg, Chunk: sweepChunk}, err
}

// singleSweepInstance is the part the three one-CSV workloads share: the
// reference every sweep and reload must reproduce, a footprint that is
// the whole state directory, and nothing to clean up.
func singleSweepInstance(spec job.Spec) (*instance, error) {
	_, ref, err := reference(spec.Domain, spec.Points, spec.Cfg)
	if err != nil {
		return nil, err
	}
	return &instance{
		scores: scoreCount(spec), ref: ref, wantSweep: ref, wantReload: ref,
		diskDir: func(dir string) string { return dir },
		cleanup: func() {},
	}, nil
}

func setupSwarmingLocalCold(_ context.Context, e *env) (*instance, error) {
	spec, err := swarmingSpec(e)
	if err != nil {
		return nil, err
	}
	inst, err := singleSweepInstance(spec)
	if err != nil {
		return nil, err
	}
	inst.sweep = func(ctx context.Context, dir string, st *sweepTrace) (sweepOut, error) {
		t := st.tracerOf()
		scores, err := localSweep(ctx, spec, dir, nil, e.p, t)
		if err != nil {
			return sweepOut{}, err
		}
		out, err := renderCSV(t, spec.Domain, scores)
		return sweepOut{csv: out}, err
	}
	inst.reload = func(dir string) ([]byte, error) { return loadCSV(spec.Domain, dir) }
	return inst, nil
}

func setupDeliveryLocalDurable(_ context.Context, e *env) (*instance, error) {
	spec, err := deliverySpec(e)
	if err != nil {
		return nil, err
	}
	inst, err := singleSweepInstance(spec)
	if err != nil {
		return nil, err
	}
	cpDir := func(dir string) string { return filepath.Join(dir, "checkpoint") }
	inst.sweep = func(ctx context.Context, dir string, st *sweepTrace) (sweepOut, error) {
		t := st.tracerOf()
		var store *cache.Store
		err := t.do("cache.Open", layerCache, func() (err error) {
			store, err = cache.Open(cache.Options{Dir: filepath.Join(dir, "cache")})
			return err
		})
		if err != nil {
			return sweepOut{}, err
		}
		scores, err := localSweep(ctx, spec, cpDir(dir), store, e.p, t)
		var out []byte
		if err == nil {
			out, err = renderCSV(t, spec.Domain, scores)
		}
		stats := store.Stats()
		if cerr := t.do("cache.Close", layerCache, store.Close); err == nil {
			err = cerr
		}
		return sweepOut{csv: out, hits: stats.Hits, misses: stats.Misses}, err
	}
	inst.reload = func(dir string) ([]byte, error) { return loadCSV(spec.Domain, cpDir(dir)) }
	return inst, nil
}

// restartScores brings a finished grid job back from its checkpoint
// root alone — WAL replay + checkpoint restore, no workers.
func restartScores(dir string, spec job.Spec) (*dsa.Scores, error) {
	coord := grid.NewCoordinator(grid.CoordinatorOptions{Dir: dir})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		return nil, err
	}
	scores, ok, err := coord.Scores(id)
	if err == nil && !ok {
		err = errors.New("restarted coordinator does not hold the complete job")
	}
	return scores, err
}

func setupDeliveryGridDurable(_ context.Context, e *env) (*instance, error) {
	spec, err := deliverySpec(e)
	if err != nil {
		return nil, err
	}
	inst, err := singleSweepInstance(spec)
	if err != nil {
		return nil, err
	}
	inst.sweep = func(ctx context.Context, dir string, st *sweepTrace) (sweepOut, error) {
		scores, err := gridSweep(ctx, spec, grid.CoordinatorOptions{Dir: dir}, e.p, st)
		if err != nil {
			return sweepOut{}, err
		}
		out, err := renderCSV(st.tracerOf(), spec.Domain, scores)
		return sweepOut{csv: out}, err
	}
	inst.reload = func(dir string) ([]byte, error) {
		scores, err := restartScores(dir, spec)
		if err != nil {
			return nil, err
		}
		return renderCSV(nil, spec.Domain, scores)
	}
	return inst, nil
}

// fillChunk is the chunking of the set-up pass that fills the cache of
// mixed-warm-resweep; the timed passes use other chunkings, which the
// cache key does not cover.
const fillChunk = 32

func setupMixedWarmResweep(ctx context.Context, e *env) (*instance, error) {
	dspec, err := deliverySpec(e)
	if err != nil {
		return nil, err
	}
	gspec, err := gossipSpec(e)
	if err != nil {
		return nil, err
	}
	specs := []job.Spec{dspec, gspec}
	cacheDir, err := e.freshDir("warm-cache")
	if err != nil {
		return nil, err
	}
	var ref, want []byte
	entries := 0
	store, err := cache.Open(cache.Options{Dir: cacheDir})
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		_, csv, err := reference(spec.Domain, spec.Points, spec.Cfg)
		if err == nil {
			fill := spec
			fill.Chunk = fillChunk
			_, err = localSweep(ctx, fill, "", store, e.p, nil)
		}
		if err != nil {
			store.Close()
			return nil, err
		}
		ref = append(ref, csv...)
		want = append(append(want, csv...), csv...) // one CSV per chunking
		entries += scoreCount(spec)
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	open := func(t *tracer) (*cache.Store, error) {
		var store *cache.Store
		err := t.do("cache.Open", layerCache, func() (err error) {
			store, err = cache.Open(cache.Options{Dir: cacheDir})
			return err
		})
		return store, err
	}
	return &instance{
		scores: 2 * entries, ref: ref, wantSweep: want, wantReload: nil,
		sweep: func(ctx context.Context, _ string, st *sweepTrace) (sweepOut, error) {
			t := st.tracerOf()
			store, err := open(t)
			if err != nil {
				return sweepOut{}, err
			}
			var out []byte
			for _, spec := range specs {
				// First pass is served from the segment log, the second from the LRU.
				for _, chunk := range []int{sweepChunk, 5} {
					pass := spec
					pass.Chunk = chunk
					scores, err := localSweep(ctx, pass, "", store, e.p, t)
					if err != nil {
						store.Close()
						return sweepOut{}, err
					}
					csv, err := renderCSV(t, spec.Domain, scores)
					if err != nil {
						store.Close()
						return sweepOut{}, err
					}
					out = append(out, csv...)
				}
			}
			stats := store.Stats()
			err = t.do("cache.Close", layerCache, store.Close)
			if err == nil && (stats.Misses != 0 || stats.Puts != 0) {
				err = fmt.Errorf("warm resweep simulated: %d cache misses, %d puts", stats.Misses, stats.Puts)
			}
			return sweepOut{csv: out, hits: stats.Hits, misses: stats.Misses}, err
		},
		reload: func(string) ([]byte, error) {
			store, err := open(nil)
			if err != nil {
				return nil, err
			}
			defer store.Close()
			if got := store.Stats().Entries; got != entries {
				return nil, fmt.Errorf("reopened cache indexes %d entries, want %d", got, entries)
			}
			return nil, nil
		},
		diskDir: func(string) string { return cacheDir },
		cleanup: func() { os.RemoveAll(cacheDir) },
	}, nil
}

var workloads = []workload{
	{wlSwarmingLocalCold, "simulators do >=90% of the work, grid and cache none: simulator changes must move it, durability and grid changes must not", true, setupSwarmingLocalCold},
	{wlDeliveryLocalDurable, "cheap simulator, fresh checkpoint and disk cache: the write path of job and cache is most of the wall, grid idle", false, setupDeliveryLocalDurable},
	{wlDeliveryGridDurable, "same sweep over a loopback coordinator: lease/upload round-trips, JSON, WAL and checkpoint ingest dominate", true, setupDeliveryGridDurable},
	{wlMixedWarmResweep, "read side of cache and job with zero simulation: open-scan, Get, keys, ExecTasks bookkeeping, assemble, CSV", true, setupMixedWarmResweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

//go:embed golden/*.sha256
var goldenFS embed.FS

// goldenSeed is the seed the committed golden digests belong to.
const goldenSeed = 1

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkGolden compares the reference bytes of a seed-1 run with the
// committed digest, so a simulator change that alters values without a
// ScoreVersioned bump fails the benchmark instead of passing as a
// speed-up (the reference and the sweeps would still agree with each
// other).
func checkGolden(name string, ref []byte) error {
	raw, err := goldenFS.ReadFile("golden/" + name + ".sha256")
	if err != nil {
		return fmt.Errorf("golden digest of %s: %w", name, err)
	}
	want := strings.TrimSpace(string(raw))
	if got := digest(ref); got != want {
		return fmt.Errorf("%s: reference CSV digest %s differs from golden %s: score values changed", name, got, want)
	}
	return nil
}
