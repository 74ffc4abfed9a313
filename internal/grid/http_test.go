package grid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
)

// logSink collects a logger's records, Debug and up, as text lines.
type logSink struct {
	mu sync.Mutex
	sb strings.Builder
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sb.String()
}

func (s *logSink) logger() *slog.Logger {
	return slog.New(slog.NewTextHandler(s, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestRequestWrapper pins what serve does around every request: a request
// ID — the caller's if it is a plain name of at most 64 bytes, else a
// fresh one — on the response, in the context (so on the records of the
// request's work) and on the access record beside the status and the
// bytes sent; 2xx GETs at Debug, the rest at Info; the mux's 404 as JSON.
// That ?stream=1 progress still flushes through the wrapper is
// TestProgressStream's, the whole API's JSON errors TestHTTPConformance's.
func TestRequestWrapper(t *testing.T) {
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Logger: logs.logger()})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	do := func(method, path, rid, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if rid != "" {
			req.Header.Set(HeaderRequestID, rid)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	logged := func(want string) {
		t.Helper()
		if !strings.Contains(logs.String(), want) {
			t.Errorf("no record reads %q; logs:\n%s", want, logs.String())
		}
	}

	// Generated: on the response, the lease record and the access record.
	rec := do("POST", "/v1/jobs/"+id+"/lease", "", `{"worker":"w","max_tasks":1}`)
	rid := rec.Header().Get(HeaderRequestID)
	if rec.Code != http.StatusOK || len(rid) != 16 || !plainName(rid) {
		t.Fatalf("lease: %d, X-Request-ID %q", rec.Code, rid)
	}
	logged("level=INFO msg=leased rid=" + rid + " job=" + id + " worker=w tasks=1 pending=18 live=1\n")
	logged(fmt.Sprintf("level=INFO msg=request rid=%s method=POST path=/v1/jobs/%s/lease status=200 bytes=%d ", rid, id, rec.Body.Len()))

	// A caller's plain ID propagates; a 2xx GET is a Debug record.
	if rec := do("GET", "/v1/jobs", "caller.chose_this-1", ""); rec.Header().Get(HeaderRequestID) != "caller.chose_this-1" {
		t.Errorf("caller's request ID not propagated: %q", rec.Header().Get(HeaderRequestID))
	}
	logged("level=DEBUG msg=request rid=caller.chose_this-1 method=GET path=/v1/jobs status=200 ")

	// Anything else is replaced, not echoed into the response or the log.
	for _, bad := range []string{strings.Repeat("x", 65), "a b=c", `"q"`, "naïve"} {
		if got := do("GET", "/v1/jobs", bad, "").Header().Get(HeaderRequestID); got == bad || len(got) != 16 || !plainName(got) {
			t.Errorf("inbound request ID %q answered with %q, want a fresh one", bad, got)
		}
	}

	// The mux's 404 page is the API's JSON error, counted in the record.
	rec = do("GET", "/v1/nope", "nope-1", "")
	if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusNotFound || ct != "application/json" ||
		rec.Body.String() != `{"error":"grid: not found"}`+"\n" {
		t.Errorf("unknown path: %d %q %q", rec.Code, ct, rec.Body.String())
	}
	logged(fmt.Sprintf("level=INFO msg=request rid=nope-1 method=GET path=/v1/nope status=404 bytes=%d ", rec.Body.Len()))
}

// TestCreateJobOldClient: a body an older client sends, a job priority
// in it, registers the job; sent again it answers the same ID and writes
// nothing to the job's file.
func TestCreateJobOldClient(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer coord.Close()
	raw, err := job.EncodeSpec(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	body := `{"spec":` + string(raw) + `,"priority":3}`
	var ids, files []string
	for range 2 {
		rec := httptest.NewRecorder()
		coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathJobs, strings.NewReader(body)))
		var sum JobSummary
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sum) != nil || sum.ID == "" {
			t.Fatalf("POST %s: %d %s", pathJobs, rec.Code, rec.Body.Bytes())
		}
		data, err := os.ReadFile(filepath.Join(dir, sum.ID, "manifest-grid.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		ids, files = append(ids, sum.ID), append(files, string(data))
	}
	if ids[0] != ids[1] || files[0] != files[1] {
		t.Fatalf("the re-post answered %s for %s, and the job's file went from %q to %q", ids[1], ids[0], files[0], files[1])
	}
}

// FuzzRouteBodies throws arbitrary bytes at every body-reading POST route
// of the table — lease (both paths), heartbeat, results, create-job, trace
// upload — with the checksum header absent, right or wrong. Whatever the
// bytes, the handler does not panic and answers JSON: an ack, or an
// {"error": ...} body; and a request it refuses (any 4xx) leaves the task
// tables, the WAL and the manifests exactly as they were. One coordinator
// serves the whole run, so accepted bodies accumulate state for the later
// ones to hit.
func FuzzRouteBodies(f *testing.F) {
	spec := scenarioSpec(f)
	dir := f.TempDir()
	opts := scenarioOptions
	opts.Dir = dir
	coord := NewCoordinator(opts)
	f.Cleanup(func() { coord.Close() })
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		f.Fatal(err)
	}
	h := coord.Handler()

	// state is what a refused request may not touch.
	state := func() string {
		var sb strings.Builder
		coord.mu.Lock()
		for _, j := range coord.jobsLocked() {
			for _, st := range j.tasks {
				fmt.Fprintf(&sb, "%s %d %q %q %v %v %v\n", st.task.ID(), st.status, st.worker,
					st.producer, st.verified, st.audit != nil, st.values)
			}
			fmt.Fprintf(&sb, "%s done=%d audits=%d requeues=%d granted=%d\n",
				j.id, j.done, j.audits, j.requeues, j.leasesGranted)
		}
		fmt.Fprintf(&sb, "quarantined=%d\n", len(coord.quarantined))
		coord.mu.Unlock()
		files, _ := filepath.Glob(filepath.Join(dir, "*", "manifest-*.jsonl"))
		for _, path := range append(files, filepath.Join(dir, walFileName)) {
			info, err := os.Stat(path)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&sb, "%s %d\n", path, info.Size())
		}
		return sb.String()
	}

	lease, err := coord.Lease(context.Background(), id, "seed", 2)
	if err != nil || len(lease.Tasks) != 2 {
		f.Fatalf("seed lease = %+v, %v", lease, err)
	}
	specRaw, err := job.EncodeSpec(spec)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []any{
		LeaseRequest{Worker: "w", MaxTasks: 2},
		LeaseRequest{Worker: "w", MaxTasks: 1, Job: id},
		HeartbeatRequest{Worker: "seed", Tasks: []string{lease.Tasks[0].Task, "no-such-task"}},
		ResultsUpload{Worker: "seed", Results: results(lease.Tasks, honestVals)},
		ResultsUpload{Worker: "other", Results: results(lease.Tasks[:1], lyingVals)},
		CreateJobRequest{Spec: specRaw},
		TraceUpload{Writer: "w", Job: id, Data: []byte("{\"name\":\"task\"}\n")},
		TraceUpload{Writer: "w", Offset: -1},
	} {
		raw, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint8(0))
		f.Add(raw, uint8(1))
	}
	f.Add([]byte(`{"worker":"w","results":[{"task":"x","values":["NaN",1e999]}]}`), uint8(2))
	f.Add([]byte(`{"spec":{"domain":"gossip","points":[[9,9,9]]}}`), uint8(0))
	f.Add([]byte(`[`), uint8(1))
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, body []byte, checksum uint8) {
		for _, rt := range coord.routes() {
			if rt.method != http.MethodPost || rt.path == pathDrain { // drain reads no body
				continue
			}
			before := state()
			req := httptest.NewRequest(rt.method, routeURL("", rt.path, id), bytes.NewReader(body))
			switch sum := sha256.Sum256(body); checksum % 3 {
			case 1:
				req.Header.Set(HeaderBodySHA256, hex.EncodeToString(sum[:]))
			case 2:
				req.Header.Set(HeaderBodySHA256, hex.EncodeToString(sum[1:]))
			}
			req.Header.Set(HeaderRequestID, "fuzz")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)

			var answer map[string]json.RawMessage
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || json.Unmarshal(rec.Body.Bytes(), &answer) != nil {
				t.Fatalf("POST %s answered %d %q %q, want a JSON object", rt.path, rec.Code, ct, rec.Body.Bytes())
			}
			if _, isError := answer["error"]; isError != (rec.Code != http.StatusOK) {
				t.Fatalf("POST %s answered %d %s: an error body goes with an error status and only with one", rt.path, rec.Code, rec.Body.Bytes())
			}
			if rec.Code/100 == 4 {
				if after := state(); after != before {
					t.Fatalf("POST %s refused the body (%d %s) and still changed state:\nbefore:\n%s\nafter:\n%s",
						rt.path, rec.Code, rec.Body.Bytes(), before, after)
				}
			} else if rec.Code != http.StatusOK {
				t.Fatalf("POST %s answered %d %s", rt.path, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
