// Command dsa-sweep runs a Design Space Analysis sweep over any
// registered domain on the sharded, checkpointed job engine and writes
// the CSV dsa-report reads.
//
// Usage:
//
//	dsa-sweep [-domain swarming|gossip|delivery] [-preset quick|paper]
//	          [-stride N] [-opponents N]
//	          [-peers N] [-rounds N] [-perfruns N] [-encruns N]
//	          [-seed N] [-out results.csv] [-explore]
//	          [-checkpoint-dir DIR] [-resume] [-cache-dir DIR]
//	          [-shards N] [-shard-index I] [-chunk N] [-trace-dir DIR]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// `dsa-sweep -h` gives each flag's meaning and default. Profiles are
// written on completion, the shard-incomplete exit included. README.md
// shows the sharded, resumed, cached and traced runs; DESIGN.md's job
// engine, score cache and tracing sections say how they work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/dsa"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/pra"
	"repro/internal/profiling"

	// Register the domains this tool can sweep.
	_ "repro/internal/delivery"
	_ "repro/internal/gossip"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsa-sweep: ")
	var (
		sweep    = job.RegisterSweepFlags(flag.CommandLine, pra.DomainName)
		out      = flag.String("out", "results.csv", "output CSV path")
		explore  = flag.Bool("explore", false, "also run the heuristic explorer (hill climb) on the primary measure; it scores through the sweep engine and -cache-dir")
		ckptDir  = flag.String("checkpoint-dir", "", "journal completed work here; survives interruption")
		resume   = flag.Bool("resume", false, "continue from an existing checkpoint dir, skipping finished tasks")
		cacheDir = flag.String("cache-dir", "", "content-addressed score cache; reruns and overlapping sweeps reuse scores")
		shards   = flag.Int("shards", 1, "total shard processes splitting this sweep (point chunks go round-robin to shards; a chunk's measures stay together)")
		shardIdx = flag.Int("shard-index", 0, "this process's shard in [0,shards)")
		traceDir = flag.String("trace-dir", "", "append a span journal (trace-s<I>of<N>.jsonl) into DIR; analyze with dsa-report trace")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on completion")
	)
	flag.Parse()

	// Validate every flag up front, before any sweep state exists: a
	// bad invocation must exit non-zero with a one-line error, never
	// panic later or silently sweep the wrong shard.
	spec, err := sweep.Spec()
	if err != nil {
		log.Fatal(err)
	}
	d, cfg, points := spec.Domain, spec.Cfg, spec.Points
	if *shards < 1 {
		log.Fatalf("shards must be >= 1, got %d", *shards)
	}
	if *shardIdx < 0 || *shardIdx >= *shards {
		log.Fatalf("shard-index must be in [0,%d) for -shards %d, got %d", *shards, *shards, *shardIdx)
	}
	if *resume && *ckptDir == "" {
		log.Fatal("-resume needs -checkpoint-dir")
	}
	if *shards > 1 && *ckptDir == "" {
		// Without a journal a shard's results evaporate on exit and
		// there is nothing to merge.
		log.Fatal("-shards needs -checkpoint-dir, or the shard results cannot be merged")
	}
	if *ckptDir != "" && !*resume && *shards == 1 {
		// Refuse to silently mix a new run into old state; the job
		// engine would reject an incompatible spec anyway, but a
		// compatible leftover dir deserves an explicit choice. With
		// -shards > 1 sharing a dir is the documented workflow, so
		// concurrently-started shards are exempt.
		if entries, err := os.ReadDir(*ckptDir); err == nil && len(entries) > 0 {
			log.Fatalf("checkpoint dir %s is not empty; pass -resume to continue it or pick a fresh dir", *ckptDir)
		}
	}

	log.Printf("sweeping %d %s points (%s preset, %d peers, %d rounds, %d opponents, shard %d/%d)",
		len(points), d.Name(), sweep.Preset, cfg.Peers, cfg.Rounds, cfg.Opponents, *shardIdx, *shards)

	// Profiles cover everything from here on; stopProf is idempotent
	// and is called explicitly on the interrupted path too, so a
	// Ctrl-C'd sweep still leaves a usable CPU profile.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	var rec *obs.Recorder // nil without -trace-dir: tracing off
	if *traceDir != "" {
		writer := fmt.Sprintf("s%dof%d", *shardIdx, *shards)
		if rec, err = obs.OpenDir(*traceDir, writer); err != nil {
			log.Fatal(err)
		}
		log.Printf("tracing to %s", obs.JournalPath(*traceDir, writer))
	}
	defer rec.Close()

	var scoreCache *cache.Store
	if *cacheDir != "" {
		var err error
		if scoreCache, err = cache.Open(cache.Options{Dir: *cacheDir}); err != nil {
			log.Fatal(err)
		}
		defer scoreCache.Close()
		st := scoreCache.Stats()
		log.Printf("score cache %s: %d entries, %d bytes on disk", *cacheDir, st.Entries, st.Bytes)
	}

	// First Ctrl-C / SIGTERM cancels the sweep cleanly: in-flight
	// tasks drain (and are journalled), no new ones start. Once the
	// cancellation fires the handler unregisters itself, so a second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	var progress progressLog
	jobOpts := job.Options{
		Dir:        *ckptDir,
		Shards:     *shards,
		ShardIndex: *shardIdx,
		Chunk:      spec.Chunk,
		Trace:      rec,
		Progress:   progress.report,
	}
	if scoreCache != nil {
		// Assign only when non-nil: a typed-nil *cache.Store in the
		// interface field would read as "cache present".
		jobOpts.Cache = scoreCache
	}
	start := time.Now()
	scores, err := job.Run(ctx, d, points, cfg, jobOpts)
	switch {
	case errors.Is(err, job.ErrIncomplete):
		log.Printf("shard %d/%d done in %v; %v", *shardIdx, *shards, time.Since(start).Round(time.Second), err)
		log.Printf("merge once all shards finish: dsa-report -domain %s -checkpoint %s -out %s merge", d.Name(), *ckptDir, *out)
		return
	case errors.Is(err, context.Canceled):
		// log.Fatal skips defers: flush the journal and profile so an
		// interrupted sweep still leaves usable artifacts.
		rec.Close()
		stopProf()
		if *ckptDir != "" {
			log.Fatalf("interrupted after %v; rerun with -resume -checkpoint-dir %s to continue", time.Since(start).Round(time.Second), *ckptDir)
		}
		log.Fatal("interrupted (no -checkpoint-dir, progress lost)")
	case err != nil:
		rec.Close()
		stopProf() // a sweep dying mid-run still leaves a usable profile
		log.Fatal(err)
	}
	log.Printf("sweep done in %v", time.Since(start).Round(time.Second))
	if p := progress.last; p.PointsSimulated+p.PointsCached > 0 {
		log.Printf("trace: %d tasks, %d points simulated, %d cache-served (%.0f%% hit rate)",
			p.FreshTasks, p.PointsSimulated, p.PointsCached, hitRate(p))
	}
	// The profiles' subject — the sweep — is over; finish them now so
	// even a failed CSV write cannot discard an hours-long profile.
	stopProf()

	if err := dsa.WriteCSVFile(*out, d, scores); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d rows)", *out, len(scores.Points))

	if *explore {
		runExplorers(ctx, d, cfg, scoreCache, rec)
	}
	if scoreCache != nil {
		st := scoreCache.Stats()
		log.Printf("score cache: %d hits, %d misses, %d entries (%d bytes on disk)",
			st.Hits, st.Misses, st.Entries, st.Bytes)
	}
	// Close explicitly so a journal that cannot be flushed fails the
	// run loudly instead of dying silently in a defer.
	if err := rec.Close(); err != nil {
		log.Fatalf("trace journal: %v", err)
	}
}

// progressLog is the job progress callback's state: it logs at most one
// line every few seconds — task counts, elapsed time, an ETA for this
// process's remaining share, and the cache-hit rate and simulated
// throughput of this run's tasks — and keeps the last snapshot for the
// summary line. The engine serializes the callback, and main reads last
// only after job.Run returned.
type progressLog struct {
	logged time.Time
	last   job.Progress
}

func (l *progressLog) report(p job.Progress) {
	l.last = p
	done := p.FreshTasks >= p.MineTasks
	if !done && time.Since(l.logged) < 5*time.Second {
		return
	}
	l.logged = time.Now()
	eta := "n/a"
	if p.ETA > 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	rate := 0.0
	if p.Elapsed > 0 {
		rate = float64(p.PointsSimulated) / p.Elapsed.Seconds()
	}
	log.Printf("progress: %d/%d tasks (%d this run), elapsed %v, ETA %s, cache-hit %.0f%%, %.0f pts/s",
		p.DoneTasks, p.TotalTasks, p.FreshTasks, p.Elapsed.Round(time.Second), eta, hitRate(p), rate)
}

// hitRate is the cache-served percentage of the points of this run's
// tasks; 0 before any.
func hitRate(p job.Progress) float64 {
	total := p.PointsSimulated + p.PointsCached
	if total == 0 {
		return 0
	}
	return 100 * float64(p.PointsCached) / float64(total)
}

// runExplorers demonstrates the Section 7 heuristic exploration on the
// selected domain against its primary measure. With -cache-dir the
// search shares raw scores with previous runs and with the sweep itself
// (the sweep fills the cache at full PerfRuns scale; the explorer uses
// PerfRuns 1, a different config hash, so their entries are disjoint —
// a warm second -explore run is where the cache pays off). Below 10 % of
// the space, random sampling finds as good a point
// (internal/job/testdata/regret.golden.json).
func runExplorers(ctx context.Context, d dsa.Domain, cfg dsa.Config, store *cache.Store, rec *obs.Recorder) {
	var sc dsa.ScoreCache
	if store != nil {
		sc = store
	}
	perfCfg := cfg
	perfCfg.PerfRuns = 1
	primary := d.Measures()[0]
	weights := job.Weights{primary: 1}
	hc, hcCalls, err := job.HillClimb(ctx, d, weights, perfCfg, job.HillClimbConfig{Restarts: 3, MaxSteps: 30, Seed: cfg.Seed}, sc, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hill climb: %s  raw %s=%.1f  (%d objective calls vs %d exhaustive)\n",
		d.Label(hc.Point), primary, hc.Score, hcCalls, d.Space().Size())
}
