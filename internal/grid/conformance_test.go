package grid

// HTTP API conformance suite: every /v1 endpoint (plus /metrics, the
// dashboard and drain) hit with wrong methods, malformed JSON,
// oversized bodies, and missing and bad auth tokens — pinning status
// codes, content types, and the structured JSON error contract. The
// suite runs against one live coordinator and then proves the abuse
// never corrupted the lease state machine by completing the job and
// comparing scores with the single-process reference.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dsa"
)

const conformanceToken = "conformance-secret"

// doRaw issues one request with no retries, so status codes are
// observed exactly as served.
func doRaw(t *testing.T, method, url, auth, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if auth != "" {
		req.Header.Set("Authorization", "Bearer "+auth)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPConformance(t *testing.T) {
	spec := gossipSpec(t)
	want := wantScores(t, spec)

	coord := NewCoordinator(CoordinatorOptions{
		Dir:       t.TempDir(),
		LeaseTTL:  500 * time.Millisecond,
		AuthToken: conformanceToken,
	})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	const (
		noAuth  = ""
		badAuth = "wrong-token"
	)
	good := conformanceToken
	// A lease, heartbeat or upload naming no worker is refused: an upload
	// from nobody would go on record with no producer, which no audit checks.
	t0 := spec.Tasks()[0]
	nameless := mustJSON(t, ResultsUpload{Results: []TaskResult{{Task: t0.ID(), Values: make([]float64, t0.Hi-t0.Lo)}}})

	cases := []struct {
		name       string
		method     string
		path       string
		auth       string
		body       string
		wantStatus int
		wantCT     string // substring of Content-Type; "" = application/json
		wantErrMsg bool   // body must decode as {"error": non-empty}
	}{
		{name: "list jobs", method: "GET", path: "/v1/jobs", wantStatus: 200},
		{name: "list jobs wrong method", method: "DELETE", path: "/v1/jobs", wantStatus: 405, wantErrMsg: true},
		{name: "unknown path", method: "GET", path: "/v1/nonsense", wantStatus: 404, wantErrMsg: true},
		{name: "root path", method: "GET", path: "/", wantStatus: 404, wantErrMsg: true},
		{name: "get job", method: "GET", path: "/v1/jobs/" + id, wantStatus: 200},
		{name: "get unknown job", method: "GET", path: "/v1/jobs/no-such-job", wantStatus: 404, wantErrMsg: true},
		{name: "create without auth", method: "POST", path: "/v1/jobs", auth: noAuth, body: `{}`, wantStatus: 401, wantErrMsg: true},
		{name: "create with bad auth", method: "POST", path: "/v1/jobs", auth: badAuth, body: `{}`, wantStatus: 401, wantErrMsg: true},
		{name: "create malformed json", method: "POST", path: "/v1/jobs", auth: good, body: `{"spec":`, wantStatus: 400, wantErrMsg: true},
		{name: "lease without auth", method: "POST", path: "/v1/jobs/" + id + "/lease", auth: noAuth, body: `{}`, wantStatus: 401, wantErrMsg: true},
		{name: "lease wrong method", method: "GET", path: "/v1/jobs/" + id + "/lease", wantStatus: 405, wantErrMsg: true},
		{name: "lease malformed json", method: "POST", path: "/v1/jobs/" + id + "/lease", auth: good, body: `not json`, wantStatus: 400, wantErrMsg: true},
		{name: "lease unknown job", method: "POST", path: "/v1/jobs/no-such-job/lease", auth: good, body: `{"worker":"c"}`, wantStatus: 404, wantErrMsg: true},
		{name: "lease naming no worker", method: "POST", path: "/v1/jobs/" + id + "/lease", auth: good, body: `{"max_tasks":1}`, wantStatus: 400, wantErrMsg: true},
		{name: "lease ok", method: "POST", path: "/v1/jobs/" + id + "/lease", auth: good, body: `{"worker":"conf","max_tasks":1}`, wantStatus: 200},
		{name: "global lease without auth", method: "POST", path: "/v1/lease", auth: noAuth, body: `{}`, wantStatus: 401, wantErrMsg: true},
		{name: "global lease naming no worker", method: "POST", path: "/v1/lease", auth: good, body: `{"max_tasks":1}`, wantStatus: 400, wantErrMsg: true},
		{name: "global lease ok", method: "POST", path: "/v1/lease", auth: good, body: `{"worker":"conf","max_tasks":1}`, wantStatus: 200},
		{name: "heartbeat without auth", method: "POST", path: "/v1/jobs/" + id + "/heartbeat", auth: noAuth, body: `{}`, wantStatus: 401, wantErrMsg: true},
		{name: "heartbeat malformed json", method: "POST", path: "/v1/jobs/" + id + "/heartbeat", auth: good, body: `[`, wantStatus: 400, wantErrMsg: true},
		{name: "heartbeat naming no worker", method: "POST", path: "/v1/jobs/" + id + "/heartbeat", auth: good, body: `{"tasks":["` + t0.ID() + `"]}`, wantStatus: 400, wantErrMsg: true},
		{name: "upload without auth", method: "POST", path: "/v1/jobs/" + id + "/results", auth: noAuth, body: `{}`, wantStatus: 401, wantErrMsg: true},
		{name: "upload naming no worker", method: "POST", path: "/v1/jobs/" + id + "/results", auth: good, body: nameless, wantStatus: 400, wantErrMsg: true},
		{name: "upload unknown task", method: "POST", path: "/v1/jobs/" + id + "/results", auth: good, body: `{"worker":"c","results":[{"task":"no-such-task","values":[]}]}`, wantStatus: 404, wantErrMsg: true},
		{name: "upload without results", method: "POST", path: "/v1/jobs/" + id + "/results", auth: good, body: `{"worker":"c","task":"x","values":[]}`, wantStatus: 400, wantErrMsg: true},
		{name: "upload unknown job", method: "POST", path: "/v1/jobs/no-such-job/results", auth: good, body: `{"worker":"c","results":[{"task":"x","values":[]}]}`, wantStatus: 404, wantErrMsg: true},
		{name: "results before complete", method: "GET", path: "/v1/jobs/" + id + "/results", wantStatus: 409, wantErrMsg: true},
		{name: "results unknown job", method: "GET", path: "/v1/jobs/no-such-job/results", wantStatus: 404, wantErrMsg: true},
		{name: "progress", method: "GET", path: "/v1/jobs/" + id + "/progress", wantStatus: 200},
		{name: "progress unknown job", method: "GET", path: "/v1/jobs/no-such-job/progress", wantStatus: 404, wantErrMsg: true},
		{name: "cache stats", method: "GET", path: "/v1/cache", wantStatus: 200},
		{name: "drain without auth", method: "POST", path: "/v1/drain", auth: noAuth, wantStatus: 401, wantErrMsg: true},
		{name: "drain with bad auth", method: "POST", path: "/v1/drain", auth: badAuth, wantStatus: 401, wantErrMsg: true},
		{name: "drain wrong method", method: "GET", path: "/v1/drain", wantStatus: 405, wantErrMsg: true},
		{name: "trace upload without auth", method: "POST", path: "/v1/trace", auth: noAuth, body: `{"writer":"w"}`, wantStatus: 401, wantErrMsg: true},
		{name: "trace upload bad auth", method: "POST", path: "/v1/trace", auth: badAuth, body: `{"writer":"w"}`, wantStatus: 401, wantErrMsg: true},
		{name: "trace upload malformed json", method: "POST", path: "/v1/trace", auth: good, body: `{`, wantStatus: 400, wantErrMsg: true},
		{name: "trace upload no writer", method: "POST", path: "/v1/trace", auth: good, body: `{"offset":0}`, wantStatus: 400, wantErrMsg: true},
		{name: "trace upload negative offset", method: "POST", path: "/v1/trace", auth: good, body: `{"writer":"w","offset":-1}`, wantStatus: 400, wantErrMsg: true},
		{name: "trace upload rewritten writer", method: "POST", path: "/v1/trace", auth: good, body: `{"writer":"a b","offset":0}`, wantStatus: 400, wantErrMsg: true},
		{name: "trace upload partial line", method: "POST", path: "/v1/trace", auth: good, body: `{"writer":"w","offset":0,"data":"eyJuYW1lIjoieiI="}`, wantStatus: 400, wantErrMsg: true},
		{name: "trace upload unknown job", method: "POST", path: "/v1/trace", auth: good, body: `{"writer":"w","job":"no-such-job"}`, wantStatus: 404, wantErrMsg: true},
		{name: "trace upload probe", method: "POST", path: "/v1/trace", auth: good, body: `{"writer":"w","offset":0}`, wantStatus: 200},
		{name: "trace wrong method", method: "DELETE", path: "/v1/trace", wantStatus: 405, wantErrMsg: true},
		{name: "trace timeline", method: "GET", path: "/v1/trace", wantStatus: 200, wantCT: "application/x-ndjson"},
		{name: "trace digest", method: "GET", path: "/v1/trace?format=digest", wantStatus: 200},
		{name: "trace unknown job", method: "GET", path: "/v1/trace?job=no-such-job", wantStatus: 404, wantErrMsg: true},
		{name: "metrics", method: "GET", path: "/metrics", wantStatus: 200, wantCT: "text/plain"},
		{name: "metrics wrong method", method: "POST", path: "/metrics", wantStatus: 405, wantErrMsg: true},
		{name: "dashboard", method: "GET", path: "/v1/dashboard", wantStatus: 200, wantCT: "text/html"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doRaw(t, tc.method, srv.URL+tc.path, tc.auth, tc.body)
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d (body %q)", tc.method, tc.path, resp.StatusCode, tc.wantStatus, raw)
			}
			if resp.Header.Get("X-Request-ID") == "" {
				t.Error("response missing X-Request-ID")
			}
			wantCT := tc.wantCT
			if wantCT == "" {
				wantCT = "application/json"
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, wantCT) {
				t.Errorf("Content-Type %q, want %q (body %q)", ct, wantCT, raw)
			}
			if tc.wantErrMsg {
				var eb errorBody
				if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
					t.Errorf("error body not structured JSON: %q (%v)", raw, err)
				}
			}
			if resp.StatusCode == 401 && resp.Header.Get("WWW-Authenticate") == "" {
				t.Error("401 missing WWW-Authenticate")
			}
		})
	}

	// The abuse above — including two real leases that will now expire
	// unheartbeated — must leave the lease state machine intact: a
	// normal worker fleet completes the job with byte-identical scores.
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = Work(ctx, srv.URL, id, WorkerOptions{
				Workers: 2, TasksPerLease: 2, Poll: 20 * time.Millisecond, Client: NewClient(conformanceToken),
			})
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	got, err := FetchScores(ctx, NewClient(conformanceToken), srv.URL, id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, scoresToWire(got)) != mustJSON(t, scoresToWire(want)) {
		t.Fatal("scores after conformance abuse differ from single-process reference")
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{maxBody: 128})
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for _, path := range []string{"/v1/jobs", "/v1/trace"} {
		resp := doRaw(t, "POST", srv.URL+path, "", `{"spec":"`+strings.Repeat("x", 4096)+`"}`)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s: status %d, want 413 (body %q)", path, resp.StatusCode, raw)
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			t.Fatalf("POST %s: 413 body not structured JSON: %q", path, raw)
		}
	}
}

// TestWorkerScoringCapsGrants pins the routing half of the scheduler: a
// worker whose leases keep expiring gets its batches cut down, while a
// clean worker keeps full batches.
func TestWorkerScoringCapsGrants(t *testing.T) {
	spec := gossipSpec(t)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	coord.now = func() time.Time { return now }

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		lease, err := coord.Lease(ctx, id, "flaky", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) == 0 {
			t.Fatal("expected a grant")
		}
		now = now.Add(2 * time.Second) // past the TTL
		if _, err := coord.Progress(id); err != nil {
			t.Fatal(err) // Progress runs lazy expiry
		}
	}
	// Neither worker has an ingested task, so each is sized a probe of one
	// chunk group (gossip's 2 measures). failEWMA after three straight
	// expiries: 1 - 0.7^3 ≈ 0.657, so flaky's is cut to ceil(2 * 0.343) = 1.
	lease, err := coord.Lease(ctx, id, "flaky", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Tasks) != 1 {
		t.Fatalf("flaky worker granted %d tasks, want 1", len(lease.Tasks))
	}
	fresh, err := coord.Lease(ctx, id, "steady", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Tasks) != 2 {
		t.Fatalf("fresh worker granted %d tasks, want the full group of 2", len(fresh.Tasks))
	}
}

// TestGridMultiJobFaultInjection is the headline fault drill: two
// concurrent jobs, three multi-job workers on
// an authenticated grid, one worker SIGKILLed mid-lease. Both jobs
// must complete with results byte-identical to single-process job.Run
// — as JSON scores and as rendered CSV — and the scheduler's per-job
// accounting must be coherent.
func TestGridMultiJobFaultInjection(t *testing.T) {
	specA := gossipSpec(t)
	specB := gossipSpec(t)
	specB.Cfg.Seed = 99
	wantA := wantScores(t, specA)
	wantB := wantScores(t, specB)

	const token = "fleet-secret"
	dir := t.TempDir()
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: 2 * time.Second, AuthToken: token, Logger: logs.logger()})
	defer coord.Close()
	idA, err := coord.AddJob(specA)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := coord.AddJob(specB)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := range errs {
		opts := WorkerOptions{
			Name: fmt.Sprintf("fleet-%d", w), Workers: 2, TasksPerLease: 2,
			Poll: 20 * time.Millisecond, Client: NewClient(token),
		}
		if w == 2 {
			// The doomed worker: leases 3 tasks, uploads one, then goes
			// silent holding the other two — a SIGKILL mid-lease.
			opts.TasksPerLease = 3
			opts.Client = &http.Client{
				Timeout:   DefaultHTTPTimeout,
				Transport: AuthTransport(token, &killingTransport{killAfter: 1}),
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = Work(ctx, srv.URL, "", opts)
		}()
	}
	wg.Wait()
	if errs[2] == nil {
		t.Fatal("doomed worker should have failed")
	}
	for w := 0; w < 2; w++ {
		if errs[w] != nil {
			t.Fatalf("healthy worker %d: %v", w, errs[w])
		}
	}

	client := NewClient(token)
	for _, tc := range []struct {
		id   string
		spec string
		want *dsa.Scores
	}{{idA, "A", wantA}, {idB, "B", wantB}} {
		got, err := FetchScores(ctx, client, srv.URL, tc.id)
		if err != nil {
			t.Fatalf("job %s: %v", tc.spec, err)
		}
		if mustJSON(t, scoresToWire(got)) != mustJSON(t, scoresToWire(tc.want)) {
			t.Fatalf("job %s: grid scores differ from single-process reference", tc.spec)
		}
		// CSV render must be byte-identical too.
		resp := doRaw(t, "GET", srv.URL+"/v1/jobs/"+tc.id+"/results?format=csv", "", "")
		gotCSV, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var wantCSV bytes.Buffer
		if err := dsa.WriteCSV(&wantCSV, specA.Domain, tc.want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
			t.Fatalf("job %s: grid CSV differs from single-process render", tc.spec)
		}
	}

	// Scheduler accounting: every task of both jobs was granted at
	// least once (re-leases after the kill can only add), the killed
	// worker's leases actually ended (moved to a healthy worker past half
	// a TTL, or expired).
	snapA, err := coord.Progress(idA)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := coord.Progress(idB)
	if err != nil {
		t.Fatal(err)
	}
	if snapA.LeasesGranted < snapA.Total || snapB.LeasesGranted < snapB.Total {
		t.Fatalf("lease accounting short: A %d/%d, B %d/%d granted/total",
			snapA.LeasesGranted, snapA.Total, snapB.LeasesGranted, snapB.Total)
	}
	if leasesEnded(logs.String(), "fleet-2") == 0 {
		t.Fatal("killed worker's leases never moved or re-queued — the fault was not injected")
	}

	// The metrics endpoint must reflect the run: grants, ingest
	// throughput, expiries, per-job done counts, lease latency.
	resp := doRaw(t, "GET", srv.URL+"/metrics", "", "")
	defer resp.Body.Close()
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"grid_leases_granted_total",
		"grid_tasks_ingested_total",
		"grid_values_ingested_total",
		"grid_lease_expiries_total",
		"grid_lease_latency_seconds_count",
		fmt.Sprintf(`grid_job_tasks{job="%s",state="done"} %d`, idA, snapA.Total),
		fmt.Sprintf(`grid_job_tasks{job="%s",state="pending"} 0`, idB),
		`grid_jobs_complete 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRequestIDThreading pins the observability contract: a
// caller-provided X-Request-ID is echoed on the response and lands in
// the coordinator's event log for the request's work.
func TestRequestIDThreading(t *testing.T) {
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Logger: logs.logger()})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs/"+id+"/lease", strings.NewReader(`{"worker":"ridw","max_tasks":1}`))
	req.Header.Set("X-Request-ID", "trace-me-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-123" {
		t.Fatalf("response X-Request-ID = %q", got)
	}
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "rid=trace-me-123") && strings.Contains(line, "msg=leased") {
			return
		}
	}
	t.Fatalf("no lease record carries rid=trace-me-123; logs:\n%s", logs.String())
}
