package grid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gridobs"
	"repro/internal/job"
)

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
				fmt.Fprintf(&sb, "%s %d %q %q %q %v %v %v\n", st.id, st.status, st.worker, st.hedgeWorker,
					st.producer, st.verified, st.audit != nil, st.values)
			}
			fmt.Fprintf(&sb, "%s done=%d audits=%d requeues=%d granted=%d weight=%d\n",
				j.id, j.done, j.audits, j.requeues, j.leasesGranted, j.weight)
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
		CreateJobRequest{Spec: specRaw, Priority: 2},
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
			req.Header.Set(gridobs.RequestIDHeader, "fuzz")
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
