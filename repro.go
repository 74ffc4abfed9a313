// Package repro is a Go implementation of Design Space Analysis (DSA),
// reproducing "Design Space Analysis for Modeling Incentives in
// Distributed Systems" (Rahman, Vinkó, Hales, Pouwelse, Sips —
// SIGCOMM 2011).
//
// The root package is a thin facade over the implementation packages
// (README.md maps each to the paper). Its type aliases and constructors
// cover the common workflow: enumerate or pick protocols, quantify them
// with PRA, sweep any registered domain on the sharded, checkpointed
// engine with a score cache and a trace journal, serve it as a grid, and
// validate winners in the swarm simulator. The package's Example
// functions are checked walk-throughs (go test -run Example -v .),
// examples/ holds the two that run as programs, and cmd/ the tools that
// regenerate every figure and table.
package repro

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/pra"
	"repro/internal/swarm"

	// Register the built-in gossip and delivery domains (pra registers
	// swarming and is imported above).
	_ "repro/internal/delivery"
	_ "repro/internal/gossip"
)

// Protocol is one point in the file-swarming design space.
type Protocol = design.Protocol

// Config is the domain-independent sweep scale; each domain reads the
// knobs in its own terms (QuickConfig and PaperConfig are the
// file-swarming presets, Domain.DefaultConfig any domain's).
type Config = dsa.Config

// Scores is the assembled result of a sweep: per-measure value vectors
// aligned with the swept points.
type Scores = dsa.Scores

// SweepResult is the file-swarming Scores with the points decoded into
// Protocols, plus the figure/table extractors of Figures 2-8 and
// Table 3.
type SweepResult = exp.SweepResult

// SwarmConfig describes a Section 5 swarm experiment.
type SwarmConfig = swarm.Config

// Client is a swarm client variant (BitTorrent, Birds, ...).
type Client = swarm.Client

// Swarm client variants.
const (
	BT     = swarm.ClientBT
	Birds  = swarm.ClientBirds
	Loyal  = swarm.ClientLoyal
	SortS  = swarm.ClientSortS
	Random = swarm.ClientRandom
)

// Protocols returns the full 3270-protocol design space in ID order.
func Protocols() []Protocol {
	ps, _ := pra.Protocols(pra.Domain().Space().Enumerate()) // every point of the space decodes
	return ps
}

// Named returns the paper's named protocols (BitTorrent, Birds,
// LoyalWhenNeeded, SortS, SortRandom, MostRobust, Freerider).
func Named() map[string]Protocol { return design.Named() }

// QuickConfig returns the reduced-scale PRA configuration.
func QuickConfig() Config { return pra.Quick() }

// PaperConfig returns the full Section 4.3 configuration (50 peers,
// 500 rounds, 100 performance runs, 10 runs per encounter, full
// round-robin — the paper's 25-cluster-hour experiment).
func PaperConfig() Config { return pra.Paper() }

// RunPRA quantifies the given protocols (nil = whole space): RunSweep
// on the file-swarming domain, returned with its extractors.
func RunPRA(protocols []Protocol, cfg Config) (*SweepResult, error) {
	return exp.Sweep(protocols, cfg)
}

// Domain packages one design space (its core.Space, point↔ID codec,
// measure kinds, deterministic ScoreSlice evaluator and whole-set
// Assemble step) for the generic engine layers. Implementing it buys a
// new domain sharding, checkpointing, resume and the CLIs for free.
type Domain = dsa.Domain

// SweepOptions controls sharding, checkpointing and progress reporting
// of a generic sweep.
type SweepOptions = job.Options

// SweepProgress is the snapshot passed to SweepOptions.Progress after
// every completed task.
type SweepProgress = job.Progress

// SpacePoint is one point of a design space (a vector of value
// indices, one per dimension).
type SpacePoint = core.Point

// ErrSweepIncomplete reports that this process's shard is done but
// other shards' tasks are still outstanding.
var ErrSweepIncomplete = job.ErrIncomplete

// Domains returns every registered DSA domain, sorted by name. The
// built-ins — the file-swarming space of Section 4 ("swarming",
// internal/pra), the gossip space of Section 3.1 ("gossip",
// internal/gossip) and the download-orchestration space ("delivery",
// internal/delivery) — register on import; additional domains appear
// here once their package is imported.
func Domains() []Domain { return dsa.Registered() }

// DomainByName resolves a registered domain by name.
func DomainByName(name string) (Domain, error) { return dsa.Get(name) }

// RunSweep runs the full quantification of a domain (nil points =
// whole space semantics: every valid point) through the sharded,
// checkpointed job engine and returns the assembled scores.
func RunSweep(d Domain, cfg Config, opts SweepOptions) (*Scores, error) {
	return RunSweepContext(context.Background(), d, nil, cfg, opts)
}

// RunSweepContext is RunSweep with explicit context and point set (nil
// = the whole space): cancelling the context stops the sweep after the
// in-flight tasks drain, and a checkpointed run resumes where it left
// off.
func RunSweepContext(ctx context.Context, d Domain, points []SpacePoint, cfg Config, opts SweepOptions) (*Scores, error) {
	return job.Run(ctx, d, points, cfg, opts)
}

// LoadSweep reassembles a checkpointed sweep of any registered domain
// without running any simulation.
func LoadSweep(dir string) (*Scores, error) { return job.Load(dir) }

// ScoreCache memoises raw (measure, point) scores across sweeps,
// explorers and grid jobs. Plug one into SweepOptions.Cache (or the
// explorers in internal/job): outputs stay byte-identical, repeated
// work disappears.
type ScoreCache = cache.Store

// ScoreCacheStats is the observability snapshot of a ScoreCache.
type ScoreCacheStats = cache.Stats

// OpenScoreCache opens (or creates) a persistent content-addressed
// score cache in dir; "" opens a memory-only cache. Any number of
// processes may share one directory. Close it when done.
func OpenScoreCache(dir string) (*ScoreCache, error) {
	return cache.Open(cache.Options{Dir: dir})
}

// GridOptions configures ServeGrid.
type GridOptions struct {
	Dir      string            // checkpoint root; "" keeps results in memory only
	Chunk    int               // points per task; 0 = the engine default
	LeaseTTL time.Duration     // task lease duration; 0 = the grid default
	OnListen func(addr string) // called with the bound address (useful with ":0")
	Logger   *slog.Logger      // coordinator records; nil = silent
	// Cache, if non-nil, is the coordinator's cross-job score cache:
	// ingested results feed it, and tasks whose scores it already
	// holds are served without being dispatched.
	Cache *ScoreCache
	// AuthToken, when non-empty, requires workers to present the same
	// shared secret as a bearer token on every mutating endpoint.
	AuthToken string
	// RateLimit / RateBurst apply per-client token-bucket admission to
	// the /v1 API (requests/second and burst capacity); 0 disables.
	RateLimit float64
	RateBurst float64
	// Priority is the job's fair-share scheduling weight against other
	// jobs on the same coordinator; 0 means 1.
	Priority int
}

// ServeGrid starts a grid coordinator on addr serving the sweep of d
// over points (nil = the whole space) and blocks until every task is
// done — returning the assembled scores, byte-identical to RunSweep —
// or until ctx is cancelled. Workers join with GridSweep or
// `dsa-grid work -coordinator http://<addr>`; any of them may die
// mid-sweep, their expired leases are re-run elsewhere.
func ServeGrid(ctx context.Context, addr string, d Domain, points []SpacePoint, cfg Config, opts GridOptions) (*Scores, error) {
	coordOpts := grid.CoordinatorOptions{
		Dir: opts.Dir, LeaseTTL: opts.LeaseTTL, Logger: opts.Logger,
		AuthToken: opts.AuthToken, RateLimit: opts.RateLimit, RateBurst: opts.RateBurst,
	}
	if opts.Cache != nil {
		coordOpts.Cache = opts.Cache
	}
	coord := grid.NewCoordinator(coordOpts)
	defer coord.Close()
	priority := opts.Priority
	if priority == 0 {
		priority = 1
	}
	id, err := coord.AddJobPriority(job.Spec{Domain: d, Points: points, Cfg: cfg, Chunk: opts.Chunk}, priority)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- coord.Serve(ctx, addr, opts.OnListen) }()
	type waitResult struct {
		scores *Scores
		err    error
	}
	waited := make(chan waitResult, 1)
	go func() {
		s, err := coord.WaitComplete(ctx, id)
		waited <- waitResult{s, err}
	}()
	select {
	case r := <-waited:
		if r.err == nil {
			select {
			case <-time.After(grid.Linger):
			case <-ctx.Done():
			}
		}
		cancel()
		<-serveErr
		return r.scores, r.err
	case err := <-serveErr:
		// The server died first (bad addr, listener error) — or ctx
		// was cancelled, in which case the waiter has the ctx error.
		cancel()
		r := <-waited
		if err != nil {
			return nil, err
		}
		return r.scores, r.err
	}
}

// GridSweep contributes an in-process worker to the grid coordinator
// at coordinatorURL — leasing tasks, computing them `workers` wide
// (0 = all cores) and uploading results — until the coordinator's
// first incomplete job completes (or, if every job is already done,
// the first job), then fetches and returns its assembled scores.
func GridSweep(ctx context.Context, coordinatorURL string, workers int) (*Scores, error) {
	jobs, err := grid.ListJobs(ctx, nil, coordinatorURL)
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, ErrSweepIncomplete
	}
	id := jobs[0].ID
	for _, j := range jobs {
		if !j.Complete {
			id = j.ID
			break
		}
	}
	if err := grid.Work(ctx, coordinatorURL, id, grid.WorkerOptions{Workers: workers}); err != nil {
		return nil, err
	}
	return grid.FetchScores(ctx, nil, coordinatorURL, id)
}

// TraceRecorder writes a span journal and nothing else — plug one into
// SweepOptions.Trace (or grid.WorkerOptions.Trace) and the sweep, every
// task (with its cache-hit/simulated split), each task's cache-lookup
// phase and each chunk's simulate call land in an append-only JSONL
// file that `dsa-report trace` analyzes. Live counts are not its
// business: a store's totals are ScoreCache.Stats, a sweep's point
// counts arrive in SweepOptions.Progress. Steady-state recording is
// allocation-free; a nil *TraceRecorder is "tracing off" everywhere.
type TraceRecorder = obs.Recorder

// TraceAnalysis is the digest AnalyzeTrace produces: critical path,
// per-measure latency, stragglers, cache attribution and per-worker
// utilization.
type TraceAnalysis = obs.Analysis

// OpenTraceJournal opens (creating dir if needed) an append-only span
// journal trace-<writer>.jsonl for one writer — a sweep shard or a
// grid worker. Journals from any number of writers sharing a directory
// merge cleanly; re-opening continues the file (fresh span IDs, the
// timebase where the last session stopped), and a torn final line from
// a crashed writer is skipped on load.
func OpenTraceJournal(dir, writer string) (*TraceRecorder, error) {
	return obs.OpenDir(dir, writer)
}

// AnalyzeTrace loads every journal in dir and digests the merged
// timeline.
func AnalyzeTrace(dir string) (*TraceAnalysis, error) {
	recs, err := obs.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return obs.Analyze(recs), nil
}

// DefaultSwarm returns the Section 5 swarm setup (5 MiB file, 128 KiB/s
// seeder, 10 s choke interval).
func DefaultSwarm() SwarmConfig { return swarm.Default() }

// SwarmEncounter runs client a against client b across composition
// fractions, as in Figure 9.
func SwarmEncounter(a, b Client, fracs []float64, leechers, runs int, cfg SwarmConfig) ([]swarm.MixPoint, error) {
	return swarm.EncounterSeries(a, b, fracs, leechers, runs, cfg)
}
