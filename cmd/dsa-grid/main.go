// Command dsa-grid runs a Design Space Analysis sweep as a distributed
// grid: a coordinator owns the task list and hands out leases over HTTP,
// workers on any machines compute and upload them, and the assembled
// scores are byte-identical to dsa-sweep's for the same spec.
//
// Usage:
//
//	dsa-grid serve -addr :8437 [sweep flags as dsa-sweep] [-checkpoint-dir DIR]
//	               [-cache-dir DIR] [-lease-ttl 30s] [-out results.csv] [-once]
//	               [-auth-token SECRET] [-audit-rate F]
//	dsa-grid work  -coordinator http://host:8437 [-name ID] [-workers N]
//	               [-tasks-per-lease N] [-cache-dir DIR] [-auth-token SECRET]
//	               [-trace-dir DIR] [-metrics-addr :9090] [-ship-traces]
//	               [-ship-interval 2s] [-reconnect 30s] [-chaos-transport SPEC]
//	               [-chaos-byzantine] [-cpuprofile FILE] [-memprofile FILE]
//
// `dsa-grid serve -h` and `dsa-grid work -h` give each flag's meaning and
// default. The first SIGTERM or ^C drains the coordinator, a second
// force-quits. The grid's design is DESIGN.md's "The grid" and
// "Operating and surviving".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/dsa"
	"repro/internal/grid"
	"repro/internal/gridobs"
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
	log.SetPrefix("dsa-grid: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: dsa-grid serve|work [flags] (run with -h for details)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "serve":
		runServe(ctx, os.Args[2:])
	case "work":
		runWork(ctx, os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q (want serve or work)", os.Args[1])
	}
}

func runServe(sigCtx context.Context, args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", ":8437", "HTTP listen address")
		sweep     = job.RegisterSweepFlags(fs, pra.DomainName)
		ckptDir   = fs.String("checkpoint-dir", "", "journal results under DIR/<job-id>; survives coordinator restarts")
		cacheDir  = fs.String("cache-dir", "", "cross-job score cache; known scores are served without dispatching work")
		leaseTTL  = fs.Duration("lease-ttl", grid.DefaultLeaseTTL, "task lease duration; unheartbeated leases expire and re-queue, leases held past half of it move to idle workers")
		out       = fs.String("out", "", "write the assembled CSV here when the job completes")
		once      = fs.Bool("once", false, "exit once the job completes instead of keeping the results API up")
		authToken = fs.String("auth-token", "", "shared secret workers must present as a bearer token (empty = open grid)")
		auditRate = fs.Float64("audit-rate", 0, "fraction of completed tasks silently re-verified on a second worker (0 = off); mismatches quarantine the liar")
	)
	fs.Parse(args)
	if *auditRate < 0 || *auditRate > 1 {
		log.Fatalf("audit-rate must be in [0,1], got %g", *auditRate)
	}
	if *leaseTTL <= 0 {
		log.Fatal("lease-ttl must be positive")
	}
	spec, err := sweep.Spec()
	if err != nil {
		log.Fatal(err)
	}
	d, points := spec.Domain, spec.Points

	coordOpts := grid.CoordinatorOptions{
		Dir: *ckptDir, LeaseTTL: *leaseTTL, Logger: slog.Default(),
		AuthToken: *authToken, AuditRate: *auditRate,
	}
	if *cacheDir != "" {
		store, err := cache.Open(cache.Options{Dir: *cacheDir})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		coordOpts.Cache = store
		st := store.Stats()
		log.Printf("score cache %s: %d entries, %d bytes on disk", *cacheDir, st.Entries, st.Bytes)
	}
	coord := grid.NewCoordinator(coordOpts)
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("job %s: %d %s points (%s preset); workers join with: dsa-grid work -coordinator http://<host>%s",
		id, len(points), d.Name(), sweep.Preset, *addr)

	// The serve context governs the API's lifetime; the first signal
	// does not cancel it but starts a graceful drain (workers are told
	// to exit, in-flight leases settle, then Serve returns). A second
	// signal force-quits: signal.NotifyContext unregisters after
	// firing, restoring the default handler.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-sigCtx.Done():
			log.Printf("signal: draining — no new leases; exiting once in-flight leases settle (signal again to force quit)")
			coord.Drain(context.Background())
		case <-ctx.Done():
		}
	}()
	go reportProgress(ctx, coord, id)
	fatal := make(chan error, 1)
	go func() {
		scores, err := coord.WaitComplete(ctx, id)
		if err != nil {
			if ctx.Err() == nil {
				// Not a shutdown: the job finished but could not be
				// assembled (e.g. a Domain.Assemble failure). Surface
				// it and bring the coordinator down instead of hanging
				// -once forever.
				fatal <- err
				cancel()
			}
			return
		}
		if *out != "" {
			if err := dsa.WriteCSVFile(*out, d, scores); err != nil {
				log.Printf("write %s: %v", *out, err)
			} else {
				log.Printf("wrote %s (%d rows)", *out, len(scores.Points))
			}
		}
		if *once {
			// Answer the calls still in flight (a worker computing a moved
			// lease, a late upload) before the listener goes away.
			select {
			case <-time.After(grid.Linger):
			case <-ctx.Done():
			}
			cancel()
		}
	}()
	if err := coord.Serve(ctx, *addr, func(bound string) { log.Printf("serving /v1 on %s", bound) }); err != nil {
		log.Fatal(err)
	}
	select {
	case err := <-fatal:
		log.Fatal(err)
	default:
	}
}

// reportProgress logs one line whenever the done count moves, at most
// every 2 seconds.
func reportProgress(ctx context.Context, coord *grid.Coordinator, id string) {
	lastDone := -1
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		snap, err := coord.Progress(id)
		if err != nil {
			return
		}
		if snap.Done != lastDone {
			lastDone = snap.Done
			log.Printf("progress: %d/%d tasks done, %d leased, %d pending, %d workers, %d requeues",
				snap.Done, snap.Total, snap.Leased, snap.Pending, snap.Workers, snap.Requeues)
		}
		if snap.Complete {
			return
		}
	}
}

func runWork(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (e.g. http://host:8437)")
		name        = fs.String("name", "", "worker identity (default: host-pid-N)")
		workers     = fs.Int("workers", 0, "parallel tasks (0 = all cores)")
		perLease    = fs.Int("tasks-per-lease", 0, "tasks per lease call (0 = the coordinator's sized grant; N caps it)")
		cacheDir    = fs.String("cache-dir", "", "worker-side score cache; leased tasks reuse known scores")
		authToken   = fs.String("auth-token", "", "shared secret the coordinator requires (serve -auth-token)")
		traceDir    = fs.String("trace-dir", "", "append this worker's span journal (trace-<name>.jsonl) into DIR")
		metricsAddr = fs.String("metrics-addr", "", "serve worker Prometheus counters on this address at GET /metrics")
		shipTraces  = fs.Bool("ship-traces", false, "stream the span journal to the coordinator, whose /metrics then carries this worker's series (needs -trace-dir)")
		shipEvery   = fs.Duration("ship-interval", grid.DefaultShipInterval, "incremental trace shipping cadence")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile of this worker to this file")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on completion")
		reconnect   = fs.Duration("reconnect", 0, "ride out coordinator outages up to this long instead of exiting on the first unreachable call")
		chaosSpec   = fs.String("chaos-transport", "", "inject seeded transport faults on every coordinator call, e.g. seed=7,drop=0.05,delay=0.1:20ms,dup=0.05,corrupt=0.05,err500=0.05 (chaos testing)")
		byzantine   = fs.Bool("chaos-byzantine", false, "upload corrupted result values (chaos testing: this worker should end up quarantined)")
	)
	fs.Parse(args)
	if *coordinator == "" {
		log.Fatal("work needs -coordinator URL")
	}
	if *shipTraces && *traceDir == "" {
		log.Fatal("-ship-traces needs -trace-dir (the journal being shipped)")
	}
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	if *name == "" && (*traceDir != "" || *metricsAddr != "") {
		// Pin the identity now so the journal name, the metric labels in
		// dashboards and the coordinator's worker column all agree.
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client := grid.NewClient(*authToken) // the worker's and the trace shipper's
	workOpts := grid.WorkerOptions{
		Name: *name, Workers: *workers, TasksPerLease: *perLease,
		Client: client, Logger: slog.Default(), Reconnect: *reconnect,
	}
	if *chaosSpec != "" {
		cfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		workOpts.Client = &http.Client{
			Timeout:   grid.DefaultHTTPTimeout,
			Transport: grid.AuthTransport(*authToken, chaos.NewTransport(cfg, nil, slog.Default())),
		}
		log.Printf("chaos transport on: %s", *chaosSpec)
	}
	if *byzantine {
		workOpts.Corrupt = func(t job.Task, values []float64) []float64 {
			out := append([]float64(nil), values...)
			if len(out) > 0 {
				out[0]++
			}
			return out
		}
		log.Printf("CHAOS: uploading corrupted result values (this worker should end up quarantined)")
	}
	if *traceDir != "" {
		rec, err := obs.OpenDir(*traceDir, *name)
		if err != nil {
			log.Fatal(err)
		}
		defer rec.Close()
		workOpts.Trace = rec
		log.Printf("tracing to %s", obs.JournalPath(*traceDir, *name))
	}
	if *metricsAddr != "" {
		metrics := gridobs.NewWorkerMetrics(nil)
		workOpts.Metrics = metrics
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler())
		go http.Serve(ln, mux) //nolint:errcheck — dies with the process
		log.Printf("serving /metrics on %s", ln.Addr())
	}
	if *cacheDir != "" {
		store, err := cache.Open(cache.Options{Dir: *cacheDir})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		workOpts.Cache = store
	}
	var shipper *grid.TraceShipper
	if *shipTraces {
		shipper = grid.NewTraceShipper(*coordinator, workOpts.Trace,
			obs.JournalPath(*traceDir, *name), grid.TraceShipperOptions{
				Client: client, Interval: *shipEvery, Logger: slog.Default(),
			})
		go shipper.Run(ctx)
		log.Printf("shipping trace to %s every %s", *coordinator, *shipEvery)
	}
	// finalShip drains whatever the incremental loop has not sent yet
	// (on its own context — the worker's may already be cancelled).
	// Called after Trace.Close on the fatal paths: Ship reads the
	// journal file and Flush on a closed recorder is a no-op.
	finalShip := func() {
		if shipper == nil {
			return
		}
		shipCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := shipper.Ship(shipCtx); err != nil {
			log.Printf("final trace ship: %v", err)
		}
	}
	err = grid.Work(ctx, *coordinator, "", workOpts)
	switch {
	case err == nil:
		finalShip()
		log.Printf("job complete")
	case ctx.Err() != nil:
		// log.Fatal skips defers: flush the journal and profiles so an
		// interrupted worker still leaves usable artifacts.
		workOpts.Trace.Close()
		finalShip()
		stopProf()
		log.Fatal("interrupted; held leases will expire and re-queue")
	default:
		workOpts.Trace.Close() // likewise a worker dying on a grid error
		finalShip()
		stopProf()
		log.Fatal(err)
	}
}
