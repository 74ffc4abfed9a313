package grid

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsa"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/obs"
)

// WorkerOptions configures a Work loop.
type WorkerOptions struct {
	// Name identifies this worker in leases and heartbeats. "" derives
	// a unique host-pid-N identity, so several in-process workers never
	// collide.
	Name string
	// Workers is the parallel task width per lease batch, passed to
	// job.ExecTasks — the same bounded pool a local run uses. 0 =
	// Cfg.Workers, then GOMAXPROCS.
	Workers int
	// TasksPerLease is how many tasks to request per lease call
	// (capped by the coordinator). 0 accepts the coordinator's cap.
	TasksPerLease int
	// Poll is the idle wait when no task is available but the job is
	// not complete (everything is leased to other workers). 0 = 500ms.
	Poll time.Duration
	// Client is the HTTP client; nil = NewClient(""), a client with
	// DefaultHTTPTimeout and no token, so a hung coordinator can never
	// wedge the worker forever (requests are also retried with backoff —
	// see call). Against a coordinator with CoordinatorOptions.AuthToken
	// set, pass NewClient(token).
	Client *http.Client
	// Cache, if non-nil, memoises raw scores on the worker side:
	// leased tasks consult it before simulating and record what they
	// computed (job.ExecOptions.Cache). A worker pointed at a warm
	// -cache-dir uploads known scores instead of recomputing them.
	Cache dsa.ScoreCache
	// Logger, if non-nil, receives the worker's records, each keyed with
	// the worker's name.
	Logger *slog.Logger
	// Trace, if non-nil, journals the worker's side of the sweep:
	// "lease" and "upload" spans carrying the request ID each HTTP call
	// sent (the same rid the coordinator logs), with each lease batch's
	// task spans (job.ExecTasks) parented under a "lease-batch" span.
	Trace *obs.Recorder
	// Metrics, if non-nil, receives worker counters (tasks, points
	// simulated vs cache-served, per-measure latency, upload retries) —
	// served on dsa-grid work -metrics-addr.
	Metrics *gridobs.WorkerMetrics

	// Reconnect, when > 0, makes the worker ride out coordinator
	// outages: instead of exiting on the first unreachable call, it
	// keeps polling until the coordinator has been continuously
	// unreachable for this long. This is what lets a fleet survive a
	// coordinator kill -9 + restart without being restarted itself.
	// Context cancellation and quarantine verdicts always exit.
	Reconnect time.Duration
	// Corrupt, if non-nil, transforms each computed result before
	// upload — the chaos harness's Byzantine-worker hook (dsa-grid
	// work -chaos-byzantine). Honest deployments leave it nil.
	Corrupt func(t job.Task, values []float64) []float64
}

var workerSeq atomic.Int64

func (o WorkerOptions) name() string {
	if o.Name != "" {
		return o.Name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d-%d", host, os.Getpid(), workerSeq.Add(1))
}

func (o WorkerOptions) poll() time.Duration {
	if o.Poll > 0 {
		return o.Poll
	}
	return 500 * time.Millisecond
}

func (o WorkerOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return NewClient("")
}

// Work runs a worker loop against the coordinator at baseURL: lease →
// ScoreSlice (on the engine's bounded pool) → upload, heartbeating
// held leases, until the work completes (nil), ctx is cancelled
// (ctx.Err()), the coordinator drains (nil — the worker is being asked
// to go away), or the coordinator becomes unreachable.
//
// With an explicit jobID the worker serves that one job. With jobID ""
// it runs in multi-job mode: every lease request leaves the job open and
// the coordinator's fair scheduler decides which job each batch serves,
// so one fleet of workers drains any mix of concurrent jobs in proportion
// to their priorities.
//
// A worker holds no durable state: killing it at any instant loses at
// most its in-flight leases, which expire on the coordinator and are
// re-run elsewhere.
func Work(ctx context.Context, baseURL, jobID string, opts WorkerOptions) error {
	name := opts.name()
	client := opts.client()
	opts.Logger = orSilent(opts.Logger).With("worker", name)
	leaseURL := routeURL(baseURL, pathLease, "")
	if jobID != "" {
		leaseURL = routeURL(baseURL, pathJobLease, jobID)
	}

	rc := &reconnector{window: opts.Reconnect}
	// rideOut waits out a failure worth tolerating (nil: go round again)
	// and hands back one that is not.
	rideOut := func(what string, err error) error {
		if !rc.tolerate(err) {
			return err
		}
		opts.Logger.Warn(what+", waiting to reconnect", "err", err)
		return sleepPoll(ctx, opts)
	}
	// join returns id's spec, fetched the first time the worker serves
	// the job. ok is false after a ridden-out outage.
	specs := map[string]job.Spec{}
	join := func(id string) (spec job.Spec, ok bool, err error) {
		if spec, ok = specs[id]; ok {
			return spec, true, nil
		}
		detail, err := GetJob(ctx, client, baseURL, id)
		if err != nil {
			return spec, false, rideOut("coordinator unreachable", err)
		}
		if spec, err = job.DecodeSpec(detail.Spec); err != nil {
			return spec, false, err
		}
		rc.ok()
		specs[id] = spec
		opts.Logger.Info("joined job", "job", id, "domain", spec.Domain.Name(), "points", len(spec.Points))
		return spec, true, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if jobID != "" {
			// A job-bound worker joins before its first lease.
			if _, ok, err := join(jobID); err != nil {
				return err
			} else if !ok {
				continue
			}
		}
		var lease LeaseResponse
		leaseSpan := opts.Trace.Start(0, "lease")
		info, err := call(ctx, client, http.MethodPost, leaseURL,
			LeaseRequest{Worker: name, MaxTasks: opts.TasksPerLease}, &lease)
		if err != nil {
			leaseSpan.Drop()
			if err = rideOut("coordinator unreachable", err); err != nil {
				return err
			}
			continue
		}
		rc.ok()
		leaseSpan.Str("rid", info.requestID).Str("job", lease.Job).
			Int("granted", int64(len(lease.Tasks))).End()
		opts.Metrics.ObserveLease(len(lease.Tasks))
		if lease.Draining {
			opts.Logger.Info("coordinator draining, exiting")
			return nil
		}
		if len(lease.Tasks) == 0 {
			if lease.Complete {
				opts.Logger.Info("work complete", "job", jobID) // "": every job
				return nil
			}
			// No jobs yet, or everything pending is leased to other
			// workers; wait for completion or an expiry to free tasks up.
			if err := sleepPoll(ctx, opts); err != nil {
				return err
			}
			continue
		}
		spec, ok, err := join(lease.Job)
		if err != nil {
			return err
		} else if !ok {
			continue
		}
		if err := runLease(ctx, client, baseURL, lease.Job, name, spec, lease.Tasks, opts); err != nil {
			// The batch's uploads died mid-outage; the leases expire and
			// re-queue, so just go back to pulling.
			if err = rideOut("lease batch failed", err); err != nil {
				return err
			}
			continue
		}
		rc.ok()
	}
}

// reconnector implements WorkerOptions.Reconnect: one outage window,
// reset by any successful call.
type reconnector struct {
	window time.Duration
	since  time.Time // start of the current outage; zero = healthy
}

func (rc *reconnector) ok() { rc.since = time.Time{} }

// tolerate reports whether err is worth riding out: anything transient
// while the continuous-outage clock is inside the window. Context
// cancellation and quarantine verdicts always surface.
func (rc *reconnector) tolerate(err error) bool {
	if rc.window <= 0 || err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrWorkerQuarantined) {
		return false
	}
	if rc.since.IsZero() {
		rc.since = time.Now()
		return true
	}
	return time.Since(rc.since) < rc.window
}

func sleepPoll(ctx context.Context, opts WorkerOptions) error {
	select {
	case <-time.After(opts.poll()):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runLease executes one lease batch: a heartbeat goroutine keeps the
// outstanding leases alive while job.ExecTasks computes them, and results
// are posted from a side goroutine, so the simulator never waits for an
// ack. The unit of upload is the unit of execution: at the end of each
// one (job.ExecOptions.OnUnit) what has landed leaves as one body — no
// size, no timer. Where the domain's measures share runs, adjacent tasks
// over one chunk are a single joint call, so a lease that is one such
// unit (the default four-task lease of a delivery job) is one upload,
// one checkpoint append and one ingest WAL write on the coordinator; a
// task that is its own unit goes out alone. Only one body is in flight
// at a time: unit n+1 computes under unit n's upload, and whatever lands
// before that ack leaves together in the next body. A task leaves the
// heartbeat set only on its ack. The first upload error stops the batch
// and is what runLease returns.
func runLease(ctx context.Context, client *http.Client, baseURL, jobID, name string, spec job.Spec, granted []LeaseTask, opts WorkerOptions) error {
	tasks := make([]job.Task, len(granted))
	ttl := DefaultLeaseTTL
	held := make(map[string]bool, len(granted))
	for i, lt := range granted {
		tasks[i] = job.Task{Measure: lt.Measure, Lo: lt.Lo, Hi: lt.Hi}
		held[lt.Task] = true
		if ms := time.Duration(lt.TTLMS) * time.Millisecond; ms > 0 {
			ttl = ms
		}
	}

	var mu sync.Mutex
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(max(ttl/3, 10*time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
			}
			mu.Lock()
			ids := make([]string, 0, len(held))
			for id := range held {
				ids = append(ids, id)
			}
			mu.Unlock()
			if len(ids) == 0 {
				return
			}
			var resp HeartbeatResponse
			if _, err := call(hbCtx, client, http.MethodPost, routeURL(baseURL, pathHeartbeat, jobID),
				HeartbeatRequest{Worker: name, Tasks: ids}, &resp); err != nil {
				continue // transient; the lease survives until its TTL
			}
			if len(resp.Lost) > 0 {
				// Per the protocol, stop heartbeating lost leases; the
				// finished values are still uploaded (idempotent) when
				// their computation lands.
				mu.Lock()
				for _, id := range resp.Lost {
					delete(held, id)
				}
				mu.Unlock()
				opts.Metrics.ObserveLeasesLost(len(resp.Lost))
				opts.Logger.Info("leases lost (expired or done elsewhere)", "job", jobID, "tasks", len(resp.Lost))
			}
		}
	}()
	defer func() {
		stopHB()
		hbWG.Wait()
	}()

	batch := opts.Trace.Start(0, "lease-batch").
		Str("job", jobID).Int("tasks", int64(len(tasks)))
	defer batch.End()

	upload := func(rs []TaskResult) error {
		var ack ResultsAck
		span := opts.Trace.Start(batch.ID(), "upload").Int("tasks", int64(len(rs)))
		info, err := call(ctx, client, http.MethodPost, routeURL(baseURL, pathResults, jobID),
			ResultsUpload{Worker: name, Results: rs}, &ack)
		if err == nil && len(ack.Acks) != len(rs) {
			err = fmt.Errorf("grid: %d acks for %d uploaded results", len(ack.Acks), len(rs))
		}
		if err != nil {
			span.Drop()
			return err
		}
		span.Str("rid", info.requestID).Int("attempts", int64(info.attempts)).End()
		opts.Metrics.ObserveUploads(len(rs), info.attempts-1)
		mu.Lock()
		for _, r := range rs {
			delete(held, r.Task)
		}
		mu.Unlock()
		for i, a := range ack.Acks {
			if a.Duplicate {
				opts.Logger.Info("task was already done (duplicate dropped)", "job", jobID, "task", rs[i].Task)
			}
		}
		return nil
	}

	// Uploader state, under mu: results land in pending; flush sends them
	// off unless a body is in flight, and then its poster takes them along
	// when the ack arrives.
	var (
		pending   []TaskResult
		posting   bool
		uploadErr error
		posts     sync.WaitGroup
	)
	execCtx, stopExec := context.WithCancel(ctx)
	defer stopExec()
	post := func(body []TaskResult) {
		defer posts.Done()
		for len(body) > 0 {
			err := upload(body)
			mu.Lock()
			if err != nil {
				uploadErr, pending = err, nil // the batch failed: what is pending stays unsent
				stopExec()
			}
			body, pending = pending, nil
			posting = len(body) > 0
			mu.Unlock()
		}
	}
	flush := func() {
		mu.Lock()
		defer mu.Unlock()
		if posting || uploadErr != nil || len(pending) == 0 {
			return
		}
		posting = true
		posts.Add(1)
		go post(pending)
		pending = nil
	}
	execOpts := job.ExecOptions{
		Workers: opts.Workers, Cache: opts.Cache,
		Trace: opts.Trace, TraceParent: batch.ID(),
		OnTask: func(ts job.TaskStats) {
			opts.Metrics.ObserveTask(ts.Task.Measure, ts.Elapsed, ts.Simulated, ts.CacheHits)
		},
		OnUnit: flush,
	}
	err := job.ExecTasks(execCtx, spec, tasks, execOpts, func(t job.Task, values []float64, elapsed time.Duration) error {
		if opts.Corrupt != nil {
			values = opts.Corrupt(t, values)
		}
		mu.Lock()
		pending = append(pending, TaskResult{Task: t.ID(), Values: values, ElapsedMS: elapsed.Milliseconds()})
		mu.Unlock()
		return nil
	})
	posts.Wait()
	if uploadErr != nil {
		return uploadErr
	}
	return err
}
