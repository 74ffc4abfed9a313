package grid

// The worker-side observability contract: one request ID per client
// call, stable across retries and visible on both sides of the wire
// (worker trace journal and coordinator access log), plus the worker
// metrics and span taxonomy a traced grid sweep produces.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gridobs"
	"repro/internal/obs"
)

// TestRequestIDStableAcrossRetries pins the client half of satellite
// one: a retried call re-sends the same X-Request-ID with an
// X-Retry-Attempt mark, so coordinator logs show one rid per logical
// call, not one per attempt.
func TestRequestIDStableAcrossRetries(t *testing.T) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	defer func() { retryDelay = orig }()

	var mu sync.Mutex
	var rids, retries []string
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		rids = append(rids, r.Header.Get(HeaderRequestID))
		retries = append(retries, r.Header.Get(HeaderRetryAttempt))
		mu.Unlock()
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"temporarily sad"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"jobs":[]}`))
	}))
	defer srv.Close()

	var out jobsResponse
	info, err := call(context.Background(), nil, http.MethodGet, routeURL(srv.URL, pathJobs, ""), nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rids) != 3 {
		t.Fatalf("attempts = %d, want 3", len(rids))
	}
	if rids[0] == "" || rids[0] != rids[1] || rids[1] != rids[2] {
		t.Errorf("request IDs changed across retries: %v", rids)
	}
	if info.requestID != rids[0] {
		t.Errorf("callInfo rid = %q, wire sent %q", info.requestID, rids[0])
	}
	if info.attempts != 3 {
		t.Errorf("callInfo attempts = %d, want 3", info.attempts)
	}
	wantRetries := []string{"", "1", "2"}
	for i, want := range wantRetries {
		if retries[i] != want {
			t.Errorf("attempt %d %s = %q, want %q", i, HeaderRetryAttempt, retries[i], want)
		}
	}
}

// TestWorkerTraceEndToEnd runs a real coordinator + traced worker and
// pins the whole satellite: the worker's lease/upload spans carry
// request IDs that appear (as rid=...) in the coordinator's own log
// lines, the lease-batch → task span tree is journalled, and the
// worker metrics counters agree with the work done.
func TestWorkerTraceEndToEnd(t *testing.T) {
	spec := gossipSpec(t)

	var coordLog logSink
	coord := NewCoordinator(CoordinatorOptions{
		Dir:      t.TempDir(),
		LeaseTTL: time.Minute,
		Logger:   coordLog.logger(),
	})
	defer coord.Close()
	if _, err := coord.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	traceDir := t.TempDir()
	rec, err := obs.OpenDir(traceDir, "tracer1")
	if err != nil {
		t.Fatal(err)
	}
	metrics := gridobs.NewWorkerMetrics(nil)
	err = Work(context.Background(), srv.URL, "", WorkerOptions{
		Name: "tracer1", Workers: 2, TasksPerLease: 4,
		Trace: rec, Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.LoadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	wantTasks := len(spec.Tasks())
	counts := map[string]int{}
	var uploadRids []string
	var uploadedTasks int64 // summed over the upload spans' tasks counts
	batchIDs := map[uint64]bool{}
	for _, r := range recs {
		counts[r.Name]++
		switch r.Name {
		case "lease-batch":
			batchIDs[r.ID] = true
		case "upload":
			if rid := r.AttrStr("rid"); rid != "" {
				uploadRids = append(uploadRids, rid)
			}
			if r.AttrInt("attempts") < 1 || r.AttrInt("tasks") < 1 {
				t.Errorf("upload span without attempts or tasks: %+v", r)
			}
			uploadedTasks += r.AttrInt("tasks")
		case "lease":
			if r.AttrStr("rid") == "" {
				t.Errorf("lease span without rid: %+v", r)
			}
		}
	}
	// One upload span per body; the bodies' task counts add up to the sweep.
	if counts["task"] != wantTasks || uploadedTasks != int64(wantTasks) || counts["upload"] > wantTasks {
		t.Errorf("task spans = %d, %d upload spans carrying %d tasks, want %d tasks", counts["task"], counts["upload"], uploadedTasks, wantTasks)
	}
	if counts["lease"] == 0 || counts["lease-batch"] == 0 {
		t.Errorf("span counts = %v, want lease and lease-batch spans", counts)
	}
	// Task and upload spans hang under their batch.
	for _, r := range recs {
		if (r.Name == "task" || r.Name == "upload") && !batchIDs[r.Parent] {
			t.Errorf("%s span parented under %d, not a lease-batch", r.Name, r.Parent)
		}
	}

	// Every upload rid the worker journalled shows up in the
	// coordinator's access log — the cross-side correlation.
	logged := coordLog.String()
	if len(uploadRids) != counts["upload"] {
		t.Fatalf("upload rids journalled = %d, want one per upload span (%d)", len(uploadRids), counts["upload"])
	}
	for _, rid := range uploadRids {
		if !strings.Contains(logged, "rid="+rid) {
			t.Errorf("upload rid %s missing from coordinator log", rid)
		}
	}

	// Metrics agree with the work done.
	var metricsOut strings.Builder
	metrics.Registry().WritePrometheus(&metricsOut)
	text := metricsOut.String()
	for _, want := range []string{
		fmt.Sprintf("worker_tasks_total %d", wantTasks),
		fmt.Sprintf("worker_uploads_total %d", wantTasks),
		"worker_lease_requests_total",
		"worker_upload_retries_total 0", // a healthy coordinator costs no retry
		`worker_task_seconds_count{measure=`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestWorkerMetricsNilSafe pins the no-metrics path: a worker without
// -metrics-addr passes a nil *WorkerMetrics everywhere.
func TestWorkerMetricsNilSafe(t *testing.T) {
	var m *gridobs.WorkerMetrics
	m.ObserveLease(3)
	m.ObserveTask("performance", time.Millisecond, 4, 2)
	m.ObserveUpload(1)
	m.ObserveLeasesLost(2)
	if m.Registry() != nil {
		t.Error("nil metrics registry != nil")
	}
}
