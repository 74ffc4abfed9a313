package grid

// Coordinator-side caching and client robustness: a job whose scores
// the cross-job cache already holds completes without dispatching any
// work (and still journals a checkpoint job.Load can read), and the
// HTTP clients retry transient failures but refuse to hang on a
// wedged coordinator.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/job"
)

// TestCrossJobCacheShortCircuit: job A is computed by a worker; job B
// — an overlapping subset with a different chunking — is served
// entirely from the coordinator's cache: complete at registration,
// zero leases dispatched, scores and checkpoint byte-identical to a
// local run.
func TestCrossJobCacheShortCircuit(t *testing.T) {
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, Cache: store, LeaseTTL: 2 * time.Second})
	defer coord.Close()

	specA := gossipSpec(t)
	idA, err := coord.AddJob(specA)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx := context.Background()
	if err := Work(ctx, srv.URL, idA, WorkerOptions{Workers: 2, TasksPerLease: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.WaitComplete(ctx, idA); err != nil {
		t.Fatal(err)
	}

	// Job B: every other point of A, different chunk — no task of B
	// has A's shape, but every per-point score is known.
	var sub []core.Point
	for i := 0; i < len(specA.Points); i += 2 {
		sub = append(sub, specA.Points[i])
	}
	specB := job.Spec{Domain: specA.Domain, Points: sub, Cfg: specA.Cfg, Chunk: 3}
	want := wantScores(t, specB)

	idB, err := coord.AddJob(specB)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Progress(idB)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Complete {
		t.Fatalf("overlapping job should complete from the cache at registration: %+v", snap)
	}
	if snap.CacheTasks != snap.Total {
		t.Fatalf("all %d tasks should be cache-served, got %d", snap.Total, snap.CacheTasks)
	}

	// A lease request must find nothing to do.
	lease, err := coord.Lease(context.Background(), idB, "idle-worker", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) != 0 || !lease.Complete {
		t.Fatalf("cache-served job still dispatched work: %+v", lease)
	}

	got, err := coord.WaitComplete(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("cache-served job scores differ from single-process job.Run")
	}
	// The cache-served tasks were journalled like ingested results:
	// the directory is a normal, complete checkpoint.
	loaded, err := job.Load(filepath.Join(dir, idB))
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, loaded) != mustJSON(t, want) {
		t.Fatal("checkpoint of a cache-served job loads differently")
	}

	stats, enabled := coord.CacheStats()
	if !enabled || stats.Entries == 0 || stats.Hits == 0 {
		t.Fatalf("cache stats should show entries and hits: %+v (enabled %v)", stats, enabled)
	}
}

// TestCacheAbsorbsMidJob: entries arriving from one job's ingests
// complete another running job's pending tasks at its next lease poll.
func TestCacheAbsorbsMidJob(t *testing.T) {
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord := NewCoordinator(CoordinatorOptions{Cache: store, LeaseTTL: time.Minute})
	defer coord.Close()

	spec := gossipSpec(t)
	// B first: registered while the cache is empty, so it has pending
	// tasks that only a later feed can absorb.
	var sub []core.Point
	for i := 0; i < len(spec.Points); i += 2 {
		sub = append(sub, spec.Points[i])
	}
	specB := job.Spec{Domain: spec.Domain, Points: sub, Cfg: spec.Cfg, Chunk: 3}
	idB, err := coord.AddJob(specB)
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := coord.Progress(idB); snap.Complete {
		t.Fatal("job B complete before anything was computed")
	}

	idA, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	if err := Work(context.Background(), srv.URL, idA, WorkerOptions{Workers: 2, TasksPerLease: 2}); err != nil {
		t.Fatal(err)
	}

	// B's next lease poll absorbs A's ingested scores.
	lease, err := coord.Lease(context.Background(), idB, "w", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) != 0 || !lease.Complete {
		t.Fatalf("job B should be fully absorbed after A's ingests: %+v", lease)
	}
	got, err := coord.WaitComplete(context.Background(), idB)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, wantScores(t, specB)) {
		t.Fatal("absorbed job B differs from single-process job.Run")
	}
}

// TestCacheStatsEndpoint: /v1/cache serves live counters, and reports
// disabled without a cache.
func TestCacheStatsEndpoint(t *testing.T) {
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	coord := NewCoordinator(CoordinatorOptions{Cache: store})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	resp, err := FetchCacheStats(context.Background(), nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled {
		t.Fatalf("cache-enabled coordinator reports %+v", resp)
	}

	bare := NewCoordinator(CoordinatorOptions{})
	bareSrv := httptest.NewServer(bare.Handler())
	defer bareSrv.Close()
	resp, err = FetchCacheStats(context.Background(), nil, bareSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Enabled {
		t.Fatalf("cache-less coordinator reports %+v", resp)
	}
}

// TestClientRetriesTransientFailures: 5xx responses and the like are
// retried with backoff until the coordinator recovers.
func TestClientRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"temporarily sad"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"jobs":[]}`))
	}))
	defer srv.Close()
	jobs, err := ListJobs(context.Background(), nil, srv.URL)
	if err != nil {
		t.Fatalf("two 500s then success should succeed, got %v", err)
	}
	if len(jobs) != 0 || calls.Load() != 3 {
		t.Fatalf("jobs %v after %d calls, want [] after 3", jobs, calls.Load())
	}
}

// TestClientDoesNotRetryClientErrors: a 4xx means the request is
// wrong; retrying would just repeat it.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer srv.Close()
	if _, err := FetchScores(context.Background(), nil, srv.URL, "nope"); err == nil {
		t.Fatal("404 should surface as an error")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("4xx was retried %d times", n)
	}
}

// TestClientTimeoutUnwedges: a coordinator that accepts connections
// but never answers cannot hang a client — the timeout fires, the
// retries run out, and the call returns.
func TestClientTimeoutUnwedges(t *testing.T) {
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hold the request open until the client gives up
	}))
	defer wedged.Close()
	client := &http.Client{Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := ListJobs(context.Background(), client, wedged.URL)
	if err == nil {
		t.Fatal("a wedged coordinator should produce an error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("client took %v to give up", elapsed)
	}
}

// TestDefaultClientHasTimeout guards the satellite fix itself: nil
// clients must never again mean "no timeout".
func TestDefaultClientHasTimeout(t *testing.T) {
	if c := defaultClient(); c.Timeout <= 0 {
		t.Fatalf("default grid client timeout = %v, want > 0", c.Timeout)
	}
	if DefaultHTTPTimeout <= 0 {
		t.Fatal("DefaultHTTPTimeout must be positive")
	}
}

// TestClientRespectsContextDuringBackoff: cancelling mid-backoff
// returns promptly instead of sleeping out the schedule.
func TestClientRespectsContextDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ListJobs(ctx, nil, srv.URL)
	if err == nil {
		t.Fatal("persistently failing coordinator should error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled call still took %v", elapsed)
	}
}
