package grid

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"os"
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
	// TasksPerLease caps the tasks of one lease call: 0 = the
	// coordinator's sized grant; N caps it.
	TasksPerLease int
	// Poll bounds an idle lease's wait at the coordinator: a lease call
	// that finds no task while the job is not complete (everything is
	// leased to other workers) is held there until something changes, at
	// most this long, and the next is sent a Poll after it. 0 = 500ms.
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
	// Unreachable means no answer: transport errors, or retries exhausted
	// on 5xx, 429 or a corrupt-body 400. An answer — a quarantine verdict
	// or any other 4xx — and context cancellation always exit.
	Reconnect time.Duration
	// Corrupt, if non-nil, transforms each computed result before
	// upload — the chaos harness's Byzantine-worker hook (dsa-grid
	// work -chaos-byzantine). Honest deployments leave it nil.
	Corrupt func(t job.Task, values []float64) []float64
}

var workerSeq atomic.Int64

func (o WorkerOptions) poll() time.Duration { return cmp.Or(o.Poll, 500*time.Millisecond) }

func (o WorkerOptions) name() string {
	if o.Name != "" {
		return o.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s-%d-%d", cmp.Or(host, "worker"), os.Getpid(), workerSeq.Add(1))
}

// Work runs a worker loop against the coordinator at baseURL: lease →
// ScoreSlice (on the engine's bounded pool) → upload, heartbeating
// held leases, until the work completes (nil), ctx is cancelled
// (ctx.Err()), the coordinator drains (nil — the worker is being asked
// to go away), refuses the worker (a quarantine verdict or any other
// 4xx), or cannot be reached.
//
// With an explicit jobID the worker serves that one job. With jobID ""
// it runs in multi-job mode: every lease request leaves the job open and
// the coordinator's fair scheduler decides which job each batch serves,
// so one fleet of workers drains any mix of concurrent jobs, an equal
// share each.
//
// A worker holds no durable state: killing it at any instant loses at
// most its in-flight leases, which expire on the coordinator and are
// re-run elsewhere.
//
// Every decision is workCore's (workcore.go); Work carries them out on one
// goroutine with one select loop. Each call, and each lease batch's
// job.ExecTasks, runs on a goroutine of its own that posts its answer back
// as an event; a wake-up is a timer.
func Work(ctx context.Context, baseURL, jobID string, opts WorkerOptions) error {
	x := &workerIO{name: opts.name(), base: baseURL, opts: opts, client: cmp.Or(opts.Client, NewClient(""))}
	x.log = orSilent(opts.Logger).With("worker", x.name)
	// Returning cancels whatever still computes or calls, and waits for
	// none of it: a simulation that is slow to stop must not hold back a
	// quarantine verdict.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	events := make(chan workMsg)
	post := func(ev workMsg) {
		select {
		case events <- ev:
		case <-ctx.Done():
		}
	}
	core, ev := newWorkCore(jobID, opts), workMsg{kind: msgStart}
	var batch *obs.Span // the lease batch being computed
	defer func() { batch.End() }()
	stop, wake := func() {}, (<-chan time.Time)(nil)
	for {
		if ev.now = time.Now(); unreachable(ev.err) {
			x.log.Warn("coordinator unreachable", "err", ev.err)
		}
		for _, a := range core.step(ev) {
			if a.kind == msgLease || a.kind == msgJob || a.kind == msgCompute || a.kind == msgExit {
				batch.End()
				batch = nil
			}
			switch a.kind {
			case msgCompute:
				batch = opts.Trace.Start(0, "lease-batch").Str("job", a.job).Int("tasks", int64(len(a.tasks)))
				stop = x.compute(ctx, a, batch.ID(), post)
			case msgStop:
				stop()
			case msgWake:
				wake = time.After(time.Until(a.at))
			case msgExit:
				if a.err == nil {
					x.log.Info(a.why, "job", jobID)
				}
				return a.err
			default:
				parent := batch.ID()
				go func() { post(x.request(ctx, a, parent)) }()
			}
		}
		select {
		case ev = <-events:
		case <-wake:
			ev = workMsg{kind: msgWake}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// workerIO carries out the core's calls and computes for one worker.
type workerIO struct {
	name, base string
	opts       WorkerOptions
	client     *http.Client
	log        *slog.Logger
}

// request makes one of the core's calls — a lease, a job's spec, a
// heartbeat, an upload parented under the batch's span — and returns it
// answered, keeping the call's span, metrics and log records.
func (x *workerIO) request(ctx context.Context, a workMsg, parent obs.SpanID) workMsg {
	var (
		span   *obs.Span
		in     any
		detail JobDetail
		beat   HeartbeatResponse
		ack    ResultsAck
	)
	method, url, out := http.MethodPost, routeURL(x.base, pathResults, a.job), any(&ack)
	switch a.kind {
	case msgLease:
		url, in, out = routeURL(x.base, pathLease, ""), LeaseRequest{Worker: x.name, MaxTasks: x.opts.TasksPerLease, WaitMS: x.opts.poll().Milliseconds()}, &a.lease
		if a.job != "" {
			url = routeURL(x.base, pathJobLease, a.job)
		}
		span = x.opts.Trace.Start(0, "lease")
	case msgJob:
		method, url, out = http.MethodGet, routeURL(x.base, pathJob, a.job), &detail
	case msgBeat:
		url, in, out = routeURL(x.base, pathHeartbeat, a.job), HeartbeatRequest{Worker: x.name, Tasks: a.ids}, &beat
	case msgUpload:
		in = ResultsUpload{Worker: x.name, Results: a.body, Lease: a.ask}
		span = x.opts.Trace.Start(parent, "upload").Int("tasks", int64(len(a.body)))
	}
	info, err := call(ctx, x.client, method, url, in, out)
	switch {
	case err != nil:
	case a.kind == msgLease:
		span.Str("rid", info.requestID).Str("job", a.lease.Job).Int("granted", int64(len(a.lease.Tasks)))
		x.opts.Metrics.ObserveLease(len(a.lease.Tasks))
	case a.kind == msgJob:
		if a.spec, err = job.DecodeSpec(detail.Spec); err == nil {
			x.log.Info("joined job", "job", a.job, "domain", a.spec.Domain.Name(), "points", len(a.spec.Points))
		}
	case a.kind == msgBeat:
		if a.ids = beat.Lost; len(a.ids) > 0 {
			x.opts.Metrics.ObserveLeasesLost(len(a.ids))
			x.log.Info("leases lost (expired or done elsewhere)", "job", a.job, "tasks", len(a.ids))
		}
	case len(ack.Acks) != len(a.body):
		err = fmt.Errorf("grid: %d acks for %d uploaded results", len(ack.Acks), len(a.body))
	default:
		span.Str("rid", info.requestID).Int("attempts", int64(info.attempts))
		x.opts.Metrics.ObserveUploads(len(a.body), info.attempts-1)
		if ack.Grant != nil {
			a.lease = *ack.Grant
			span.Int("granted", int64(len(a.lease.Tasks)))
			x.opts.Metrics.ObserveLease(len(a.lease.Tasks))
		}
	}
	if a.err = err; err != nil {
		span.Drop()
	} else {
		span.End()
	}
	return a
}

// compute runs one batch through job.ExecTasks, posting each result, each
// execution unit's end and the end of it all as events; stop cancels it.
// Where the domain's measures share runs a unit is a joint call over one
// chunk, so the default four-task lease of a delivery job is one unit and
// leaves as one upload.
func (x *workerIO) compute(ctx context.Context, a workMsg, parent obs.SpanID, post func(workMsg)) (stop func()) {
	ctx, stop = context.WithCancel(ctx)
	opts := x.opts
	execOpts := job.ExecOptions{
		Workers: opts.Workers, Cache: opts.Cache, Trace: opts.Trace, TraceParent: parent,
		OnTask: func(ts job.TaskStats) {
			opts.Metrics.ObserveTask(ts.Task.Measure, ts.Elapsed, ts.Simulated, ts.CacheHits)
		},
		OnUnit: func() { post(workMsg{kind: msgUnit}) },
	}
	go func() {
		defer stop()
		err := job.ExecTasks(ctx, a.spec, a.tasks, execOpts, func(t job.Task, values []float64, elapsed time.Duration) error {
			post(workMsg{kind: msgResult, task: t, body: []TaskResult{{Task: t.ID(), Values: values, ElapsedMS: elapsed.Milliseconds()}}})
			return nil
		})
		post(workMsg{kind: msgComputed, err: err})
	}()
	return stop
}
