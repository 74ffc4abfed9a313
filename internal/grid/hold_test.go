package grid

// The held lease: a lease call that would answer nothing waits at the
// coordinator until something changes, on real goroutines and the wall
// clock, and a worker paces its calls by when it sent them.

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/delivery"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/obs"
)

// holdBound is the wait every held call here carries: far longer than
// anything that should end it.
const holdBound = 5 * time.Second

// busyGrid is a coordinator behind a test server whose one job is leased
// whole to the worker "busy": an idle asker is granted nothing until
// something changes.
func busyGrid(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server, string, []LeaseTask) {
	t.Helper()
	spec := auditSpec(t, 4)
	c := NewCoordinator(opts)
	id, err := c.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	held := leaseUpTo(t, c, id, "busy", len(spec.Tasks()))
	if len(held) != len(spec.Tasks()) {
		t.Fatalf("busy holds %d of %d tasks", len(held), len(spec.Tasks()))
	}
	return c, srv, id, held
}

type heldAnswer struct {
	resp LeaseResponse
	err  error
	at   time.Time
}

// holdLease sends worker's lease call of job id ("": any job) with the
// hold bound, and returns once the coordinator has answered it nothing
// once — from then on it is held, and any change wakes it.
func holdLease(t *testing.T, c *Coordinator, base, id, worker string) <-chan heldAnswer {
	t.Helper()
	out := make(chan heldAnswer, 1)
	go func() {
		var a heldAnswer
		url := routeURL(base, pathLease, "")
		if id != "" {
			url = routeURL(base, pathJobLease, id)
		}
		_, a.err = call(context.Background(), nil, http.MethodPost, url, LeaseRequest{Worker: worker, WaitMS: holdBound.Milliseconds()}, &a.resp)
		a.at = time.Now()
		out <- a
	}()
	waitAsked(t, c, worker)
	return out
}

// waitAsked returns once the coordinator has answered worker's lease
// call nothing (an empty grant is a sign of life): a hold that began
// before any change to come, which the change must end.
func waitAsked(t *testing.T, c *Coordinator, worker string) {
	t.Helper()
	for deadline := time.Now().Add(holdBound); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		asked := c.workers[worker] != nil
		c.mu.Unlock()
		if asked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's lease call never reached the coordinator", worker)
		}
	}
}

// answered waits for a held call's answer, failing if the hold ran out
// its bound instead of ending at once.
func answered(t *testing.T, ch <-chan heldAnswer, since time.Time) heldAnswer {
	t.Helper()
	select {
	case a := <-ch:
		if d := a.at.Sub(since); d > holdBound/5 {
			t.Fatalf("the held call answered %v after the change, not at once", d)
		}
		return a
	case <-time.After(2 * holdBound):
		t.Fatal("the held call never answered")
	}
	return heldAnswer{}
}

// TestHeldLeaseHearsComplete: a worker with a 5 s Poll, idle in a held
// call while another holds the last tasks, hears its job complete within
// 50 ms of the last ingest, and exits.
func TestHeldLeaseHearsComplete(t *testing.T) {
	c, srv, id, held := busyGrid(t, CoordinatorOptions{LeaseTTL: time.Minute})
	exited := make(chan time.Time, 1)
	var err error
	go func() {
		err = Work(context.Background(), srv.URL, id, WorkerOptions{Name: "idle", Poll: holdBound})
		exited <- time.Now()
	}()
	waitAsked(t, c, "idle")
	if _, err := c.IngestResults(context.Background(), id, ResultsUpload{Worker: "busy", Results: results(held, honestVals)}); err != nil {
		t.Fatal(err)
	}
	ingested := time.Now()
	select {
	case at := <-exited:
		if err != nil {
			t.Fatal(err)
		}
		if d := at.Sub(ingested); d > 50*time.Millisecond {
			t.Fatalf("the idle worker exited %v after the last ingest, want within 50ms", d)
		}
	case <-time.After(2 * holdBound):
		t.Fatal("the idle worker never exited")
	}
}

// TestHeldLeaseGrantsAtExpiry: a held call is granted the tasks whose
// leases lapse at their deadline, long before its bound.
func TestHeldLeaseGrantsAtExpiry(t *testing.T) {
	const ttl = 200 * time.Millisecond
	c, srv, id, held := busyGrid(t, CoordinatorOptions{LeaseTTL: ttl})
	start := time.Now()
	a := answered(t, holdLease(t, c, srv.URL, id, "idle"), start)
	if a.err != nil || len(a.resp.Tasks) == 0 {
		t.Fatalf("held call answered %+v, %v; want a grant of the lapsed leases", a.resp, a.err)
	}
	if !slices.ContainsFunc(held, func(lt LeaseTask) bool { return lt.Task == a.resp.Tasks[0].Task }) {
		t.Fatalf("granted %s, which busy never held", a.resp.Tasks[0].Task)
	}
	if d := a.at.Sub(start); d < ttl/2 || d > 10*ttl {
		t.Fatalf("granted %v after the call, want about the lease TTL (%v)", d, ttl)
	}
}

// TestHoldEndsAtOnce: a drain, Close, the holder's quarantine and — for a
// call without a job — a new job each answer a held call at once.
func TestHoldEndsAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name     string
		everyJob bool // the call names no job
		end      func(t *testing.T, c *Coordinator)
		check    func(a heldAnswer) bool
	}{
		{"drain", false, func(_ *testing.T, c *Coordinator) { c.Drain(context.Background()) },
			func(a heldAnswer) bool { return a.err == nil && a.resp.Draining }},
		{"close", false, func(_ *testing.T, c *Coordinator) { c.Close() },
			func(a heldAnswer) bool { return a.err == nil && len(a.resp.Tasks) == 0 && !a.resp.Complete }},
		{"quarantine", false, func(_ *testing.T, c *Coordinator) { quarantine(c, "idle") },
			func(a heldAnswer) bool { return errors.Is(a.err, ErrWorkerQuarantined) }},
		{"new job", true, func(t *testing.T, c *Coordinator) {
			if _, err := c.AddJob(auditSpec(t, 6)); err != nil {
				t.Fatal(err)
			}
		}, func(a heldAnswer) bool { return a.err == nil && len(a.resp.Tasks) > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, srv, id, _ := busyGrid(t, CoordinatorOptions{LeaseTTL: time.Minute})
			if tc.everyJob {
				id = ""
			}
			ch := holdLease(t, c, srv.URL, id, "idle")
			start := time.Now()
			tc.end(t, c)
			if a := answered(t, ch, start); !tc.check(a) {
				t.Fatalf("the held call answered %+v, %v", a.resp, a.err)
			}
		})
	}
}

// TestWorkerPacesByPoll: against a coordinator that answers an empty
// lease at once (one that holds nothing), a worker still sends no more
// than one lease call a Poll, each carrying the Poll as its wait bound.
func TestWorkerPacesByPoll(t *testing.T) {
	const poll = 40 * time.Millisecond
	var calls atomic.Int64
	var mu sync.Mutex
	var waits []int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if r.URL.Path != pathLease || json.NewDecoder(r.Body).Decode(&req) != nil {
			writeJSON(w, http.StatusNotFound, errorBody{Error: "unexpected request"})
			return
		}
		calls.Add(1)
		mu.Lock()
		waits = append(waits, req.WaitMS)
		mu.Unlock()
		writeJSON(w, http.StatusOK, LeaseResponse{})
	}))
	defer srv.Close()
	const window = 10 * poll
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	if err := Work(ctx, srv.URL, "", WorkerOptions{Name: "pacer", Poll: poll}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Work: %v", err)
	}
	n := calls.Load()
	if n < 3 || n > int64(window/poll)+1 {
		t.Fatalf("%d lease calls in %v at a %v Poll, want at most one a Poll", n, window, poll)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range waits {
		if w != poll.Milliseconds() {
			t.Fatalf("a lease call carried wait_ms %d, want the Poll, %d", w, poll.Milliseconds())
		}
	}
}

// TestGrantsTraced: a traced worker whose batches are granted on upload
// acks journals one lease-batch span per grant that carried tasks, with
// every task and upload under one; the upload that brought a grant
// records it, and the worker metrics count every grant, whichever call
// carried it.
func TestGrantsTraced(t *testing.T) {
	spec := gossipSpec(t)
	c := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer c.Close()
	id, err := c.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	dir := t.TempDir()
	rec, err := obs.OpenDir(dir, "tracer")
	if err != nil {
		t.Fatal(err)
	}
	metrics := gridobs.NewWorkerMetrics(nil)
	if err := Work(context.Background(), srv.URL, id, WorkerOptions{Name: "tracer", Workers: 1, TasksPerLease: 2, Trace: rec, Metrics: metrics}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	batches := map[uint64]bool{}
	for _, r := range recs {
		if r.Name == "lease-batch" {
			batches[r.ID] = true
		}
	}
	var grants, acks, nonEmpty, granted int
	for _, r := range recs {
		if (r.Name == "task" || r.Name == "upload") && !batches[r.Parent] {
			t.Errorf("%s span parented under %d, not a journalled lease-batch", r.Name, r.Parent)
		}
		if _, ok := r.Attrs["granted"]; ok && (r.Name == "lease" || r.Name == "upload") {
			n := int(r.AttrInt("granted"))
			grants, granted = grants+1, granted+n
			if r.Name == "upload" {
				acks++
			}
			if n > 0 {
				nonEmpty++
			}
		}
	}
	if acks == 0 || nonEmpty != len(batches) || granted != len(spec.Tasks()) {
		t.Fatalf("%d grants (%d on acks, %d with tasks, %d tasks), %d lease-batch spans; want grants on acks, a batch per grant with tasks, %d tasks",
			grants, acks, nonEmpty, granted, len(batches), len(spec.Tasks()))
	}
	if s := metrics.Snapshot(); int(s.Leases) != grants || int(s.LeasedTasks) != granted {
		t.Fatalf("worker metrics count %v grants of %v tasks, the spans %d of %d", s.Leases, s.LeasedTasks, grants, granted)
	}
}

// BenchmarkSweepExit measures how long a grid sweep's workers take to exit
// once its job completes, in bench's delivery-grid-durable shape: a quick
// delivery sweep, chunk 8, on a durable coordinator over loopback, two
// one-slot workers with a 2 ms Poll. exit_us is the median over the
// sweeps (go test ./internal/grid -run '^$' -bench SweepExit -benchtime 60x).
func BenchmarkSweepExit(b *testing.B) {
	d := delivery.Domain()
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Workers = 2
	spec := job.Spec{Domain: d, Points: d.Space().Enumerate(), Cfg: cfg, Chunk: 8}
	var exits, sweeps []float64
	b.ResetTimer()
	for range b.N {
		start := time.Now()
		exit := gridSweepExit(b, spec)
		sweeps = append(sweeps, float64(time.Since(start).Microseconds()))
		exits = append(exits, float64(exit.Nanoseconds())/1e3)
	}
	slices.Sort(exits)
	slices.Sort(sweeps)
	b.ReportMetric(exits[len(exits)/2], "exit_us")
	b.ReportMetric(exits[len(exits)*9/10], "exit_us_p90")
	b.ReportMetric(sweeps[len(sweeps)/2]/1e3, "sweep_ms")
}

// gridSweepExit runs one sweep of spec and returns the time from its
// completion to the last worker's exit.
func gridSweepExit(b *testing.B, spec job.Spec) time.Duration {
	c := NewCoordinator(CoordinatorOptions{Dir: b.TempDir()})
	defer c.Close()
	id, err := c.AddJob(spec)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: c.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	defer func() {
		srv.Shutdown(context.Background())
		<-served
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Timeout: DefaultHTTPTimeout, Transport: transport}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Work(context.Background(), "http://"+ln.Addr().String(), id, WorkerOptions{
				Name: []string{"w0", "w1"}[i], Workers: 1, Poll: 2 * time.Millisecond, Client: client,
			})
		}()
	}
	if _, err := c.WaitComplete(context.Background(), id); err != nil {
		b.Fatal(err)
	}
	complete := time.Now()
	wg.Wait()
	exit := time.Since(complete)
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	return exit
}
