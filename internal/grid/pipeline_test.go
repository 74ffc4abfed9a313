package grid

// The worker uploads off its compute path: the simulator moves on to the
// next task while an ack is outstanding, and what lands meanwhile leaves
// together in the next body. These tests pin what that must not change —
// a task stays in the heartbeat set until its own ack, the first failed
// upload is what Work returns, and a worker that dies holding
// computed-but-unsent results costs nothing but a re-run — and that a
// refusal ends the worker: under Reconnect too, and mid-batch.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
)

// beat is one heartbeat as the coordinator's front door saw it.
type beat struct {
	tasks    []string
	computed int32 // tasks the worker had finished computing by then
}

// heldSet waits for a heartbeat that arrived after the whole lease was
// computed and names exactly n tasks, and returns them.
func heldSet(t *testing.T, beats <-chan beat, n int) []string {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for {
		select {
		case b := <-beats:
			if b.computed == 3 && len(b.tasks) == n {
				return b.tasks
			}
		case <-timeout:
			t.Fatalf("no heartbeat naming %d tasks arrived", n)
		}
	}
}

func TestWorkerUploadsOffComputePath(t *testing.T) {
	spec := gossipSpec(t)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 300 * time.Millisecond})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A sized grant, so the worker's cap of 3 is what it gets.
	seeded := giveEvidence(t, coord, spec, id, "pipelined")

	// In front of the coordinator: heartbeats are copied to the test,
	// the first upload waits for release[0] and is then served, the
	// second waits for release[1] and is refused outright. Each upload's
	// size — the results its body carries — is noted.
	beats := make(chan beat, 1024) // never blocks the handler: the test reads what it needs
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	arrived := make(chan struct{}, 8) // one token per upload; a lease is 3
	abandon := make(chan struct{})    // unparks the handlers when the test bails out
	var uploads, computed atomic.Int32
	var sizes [2]atomic.Int32
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/heartbeat"):
			body, _ := io.ReadAll(r.Body)
			var hb HeartbeatRequest
			if json.Unmarshal(body, &hb) == nil {
				beats <- beat{hb.Tasks, computed.Load()}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/results"):
			n := int(uploads.Add(1))
			body, _ := io.ReadAll(r.Body)
			var up ResultsUpload
			if json.Unmarshal(body, &up) == nil && n <= len(sizes) {
				sizes[n-1].Store(int32(len(up.Results)))
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			arrived <- struct{}{}
			if n <= len(release) {
				select {
				case <-release[n-1]:
				case <-abandon:
				}
			}
			if n == 2 {
				http.Error(w, `{"error":"refused by the test"}`, http.StatusBadRequest)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(abandon)

	allComputed := make(chan struct{})
	workErr := make(chan error, 1)
	go func() {
		workErr <- Work(context.Background(), srv.URL, id, WorkerOptions{
			Name: "pipelined", Workers: 1, TasksPerLease: 3,
			// Corrupt runs in the sink, once per computed task.
			Corrupt: func(_ job.Task, values []float64) []float64 {
				if computed.Add(1) == 3 {
					close(allComputed)
				}
				return values
			},
		})
	}()

	// The first upload is parked at the coordinator's door; the whole
	// lease must compute anyway.
	select {
	case <-allComputed:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of 3 leased tasks computed while the first upload waited for its ack", computed.Load())
	}
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the first upload never reached the coordinator")
	}
	held := heldSet(t, beats, 3) // computed, not acked: all three still heartbeat
	close(release[0])
	after := heldSet(t, beats, 2) // the acked task, and only it, left the set
	for _, tid := range after {
		found := false
		for _, h := range held {
			found = found || h == tid
		}
		if !found {
			t.Fatalf("heartbeat set %v after the first ack is not a subset of %v", after, held)
		}
	}
	close(release[1])

	select {
	case err := <-workErr:
		if err == nil || !strings.Contains(err.Error(), "refused by the test") {
			t.Fatalf("Work returned %v, want the refused upload's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Work did not return after an upload failed mid-batch")
	}
	if n := uploads.Load(); n != 2 {
		t.Fatalf("%d uploads were attempted, want the batch to stop at the failed second", n)
	}
	// The first task went out alone, as it landed; the two that landed
	// while its ack was outstanding left together.
	if a, b := sizes[0].Load(), sizes[1].Load(); a != 1 || b != 2 {
		t.Fatalf("the uploads carried %d and %d results, want 1 and then the 2 that queued behind it", a, b)
	}
	snap, err := coord.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Done != seeded+1 {
		t.Fatalf("coordinator holds %d done tasks, want the %d seeded and the one acked upload", snap.Done, seeded)
	}
}

// severOnUpload forwards everything until the worker's first result
// upload, which never leaves the machine — nor does anything after it:
// the worker dies between compute and upload.
type severOnUpload struct {
	mu   sync.Mutex
	dead bool
}

func (s *severOnUpload) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/results") {
		s.dead = true
	}
	dead := s.dead
	s.mu.Unlock()
	if dead {
		return nil, errWorkerKilled
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestGridWorkerKilledBetweenComputeAndUpload(t *testing.T) {
	spec := gossipSpec(t)
	csv := func(s *dsa.Scores) string {
		var buf bytes.Buffer
		if err := dsa.WriteCSV(&buf, spec.Domain, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := csv(wantScores(t, spec))

	coord := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: 150 * time.Millisecond})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	var killedErr, survivorErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		killedErr = Work(ctx, srv.URL, id, WorkerOptions{
			Name: "doomed", Workers: 1, TasksPerLease: 3,
			Client: &http.Client{Transport: &severOnUpload{}},
		})
	}()
	go func() {
		defer wg.Done()
		survivorErr = Work(ctx, srv.URL, id, WorkerOptions{
			Name: "survivor", Workers: 2, TasksPerLease: 2, Poll: 20 * time.Millisecond,
		})
	}()
	wg.Wait()
	if killedErr == nil {
		t.Fatal("the doomed worker should have died on its severed connection")
	}
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}
	got, err := coord.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if csv(got) != want {
		t.Fatal("CSV after a worker died between compute and upload is not byte-identical to single-process job.Run")
	}
}

// TestReconnectEndsOnRefusal: Reconnect rides out a coordinator that
// cannot be reached, never one that answers no. A results route that
// answers 400 ends Work with that error after one upload, where riding it
// out would lease, compute and upload into the same 400 forever.
func TestReconnectEndsOnRefusal(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var uploads atomic.Int32
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/results") {
			uploads.Add(1)
			http.Error(w, `{"error":"refused by the test"}`, http.StatusBadRequest)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	workErr := make(chan error, 1)
	go func() {
		workErr <- Work(context.Background(), srv.URL, id, WorkerOptions{
			Name: "refused", Workers: 1, TasksPerLease: 1, Poll: 10 * time.Millisecond, Reconnect: time.Hour,
		})
	}()
	select {
	case err := <-workErr:
		if err == nil || !strings.Contains(err.Error(), "refused by the test") {
			t.Fatalf("Work returned %v, want the refused upload's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Work rode out a 400 under Reconnect (%d uploads so far)", uploads.Load())
	}
	if n := uploads.Load(); n != 1 {
		t.Fatalf("%d uploads were attempted, want the one that was refused", n)
	}
}

// stalling is gossip whose ScoreSlice says it started and then waits for
// release: a lease batch that computes until the test lets it go.
type stalling struct {
	dsa.Domain
	started, release chan struct{}
}

func (stalling) Name() string { return "gossip-stalling" }

func (d *stalling) ScoreSlice(m string, pts, opp []core.Point, cfg dsa.Config) ([]float64, error) {
	select {
	case d.started <- struct{}{}:
	default:
	}
	<-d.release
	return d.Domain.ScoreSlice(m, pts, opp, cfg)
}

// stall is the registered stalling domain; a test arms its channels.
var stall = func() *stalling {
	d := &stalling{Domain: gossip.Domain()}
	dsa.Register(d)
	return d
}()

// TestHeartbeatVerdictStopsBatch: a quarantine verdict that reaches the
// worker on a heartbeat stops its batch, and Work returns
// ErrWorkerQuarantined while the batch is still computing.
func TestHeartbeatVerdictStopsBatch(t *testing.T) {
	stall.started, stall.release = make(chan struct{}, 1), make(chan struct{})
	defer close(stall.release)
	spec := gossipSpec(t)
	spec.Domain = stall
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: 150 * time.Millisecond})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	workErr := make(chan error, 1)
	go func() { workErr <- Work(context.Background(), srv.URL, id, WorkerOptions{Name: "banned", Workers: 1}) }()
	select {
	case <-stall.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch never started computing")
	}
	quarantine(coord, "banned")
	select {
	case err := <-workErr:
		if !errors.Is(err, ErrWorkerQuarantined) {
			t.Fatalf("Work returned %v, want ErrWorkerQuarantined", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Work kept computing its batch after a heartbeat answered the verdict")
	}
}
