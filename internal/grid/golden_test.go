package grid

// The commit pin: seeded, fake-clock runs of the whole coordinator —
// three honest workers, a straggler, a liar, full auditing, hedging, two
// jobs, a re-post of one and a drain — driven
// through the HTTP handler only, and compared byte for byte with what the
// same runs left behind when the golden was recorded: the WAL, both
// manifests, how the bytes were grouped into writes, the final counters
// and the event log. Whatever is rearranged between a decision and the
// disk may not reorder a record, regroup a write or move a log line.
//
// The driver speaks the wire (paths, request fields, `tasks`, `job`,
// `acks`) and reads the task table, nothing else, so it survives a
// rewrite of the Go API around it. It stays clear of one behaviour on
// purpose: a producer never re-sends a task whose audit is open unless it
// holds that audit's lease (what that upload means is FuzzSchedule's
// invariant 6, not this pin's).

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/commit.golden from this binary (only at a commit whose journals are trusted)")

// goldenGrid is a coordinator behind its handler, with everything the pin
// compares collected on the side.
type goldenGrid struct {
	t      *testing.T
	coord  *Coordinator
	h      http.Handler
	calls  int
	mu     sync.Mutex
	log    []string
	writes []string
}

// do makes one API call under a request ID that names its position in
// the run, and returns the status and the body.
func (g *goldenGrid) do(method, path string, body any) (int, []byte) {
	g.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			g.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	g.calls++
	req := httptest.NewRequest(method, path, rd)
	req.Header.Set(HeaderRequestID, fmt.Sprintf("call-%04d", g.calls))
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// complete asks the jobs listing whether every job is.
func (g *goldenGrid) complete() bool {
	code, body := g.do("GET", "/v1/jobs", nil)
	var resp struct {
		Jobs []struct {
			Complete bool `json:"complete"`
		} `json:"jobs"`
	}
	if code != 200 || json.Unmarshal(body, &resp) != nil || len(resp.Jobs) != 2 {
		g.t.Fatalf("GET /v1/jobs: %d %s", code, body)
	}
	return resp.Jobs[0].Complete && resp.Jobs[1].Complete
}

// sendable drops from rs what the pin stays clear of (see the file
// comment): w's own recorded, unverified value while someone else — or
// nobody — holds its audit.
func (g *goldenGrid) sendable(id, w string, rs []TaskResult) []TaskResult {
	g.coord.mu.Lock()
	defer g.coord.mu.Unlock()
	j := g.coord.jobs[id]
	return slices.DeleteFunc(rs, func(r TaskResult) bool {
		st := j.task(r.Task)
		return st.status == taskDone && st.producer == w && !st.verified && st.worker != w
	})
}

// goldenRun is one seeded run, rendered: the files, the writes, the
// counters, the log.
func goldenRun(t *testing.T, seed uint64) string {
	specs := []job.Spec{scenarioSpec(t), auditSpec(t, 12)} // 36 + 12 tasks
	dir := t.TempDir()
	g := &goldenGrid{t: t}
	restore := job.SetWriterSeam(func(path string, w io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			rel, _ := filepath.Rel(dir, path)
			g.mu.Lock()
			g.writes = append(g.writes, fmt.Sprintf("%s +%d", filepath.ToSlash(rel), len(p)))
			g.mu.Unlock()
			return w.Write(p)
		})
	})
	defer restore()
	opts := scenarioOptions
	opts.Dir = dir
	opts.Logger = slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		line := strings.TrimSuffix(string(p), "\n")
		if !strings.Contains(line, " msg=request ") { // the access records carry wall-clock durations
			g.mu.Lock()
			g.log = append(g.log, line)
			g.mu.Unlock()
		}
		return len(p), nil
	}), &slog.HandlerOptions{ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		if a.Key == slog.TimeKey {
			return slog.Attr{}
		}
		return a
	}}))
	g.coord = NewCoordinator(opts)
	now := time.Unix(1000, 0)
	g.coord.now = func() time.Time { return now }
	g.h = g.coord.Handler()

	var ids []string
	create := func(spec job.Spec) string {
		raw, err := job.EncodeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		code, body := g.do("POST", "/v1/jobs", CreateJobRequest{Spec: raw})
		var sum JobSummary
		if code != 200 || json.Unmarshal(body, &sum) != nil || sum.ID == "" {
			t.Fatalf("POST /v1/jobs: %d %s", code, body)
		}
		return sum.ID
	}
	for _, spec := range specs {
		ids = append(ids, create(spec))
	}

	lying := func(lt LeaseTask) []float64 {
		out := honestVals(lt)
		out[0]++
		return out
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	workers := []string{"good1", "good2", "good3", "liar", "slow", "slow"}
	held := map[string]map[string][]LeaseTask{} // worker -> job -> finished, unsent
	for step := 0; !g.complete(); step++ {
		if step == 5000 {
			t.Fatalf("the jobs did not complete in %d steps", step)
		}
		if step == 40 {
			create(specs[1]) // a re-post mid-run: it writes nothing
		}
		now = now.Add(time.Second)
		w := workers[rng.IntN(len(workers))]
		// A third of the leases each: whichever job the scheduler picks,
		// the first job, the second.
		path, id := "/v1/lease", ""
		if scope := rng.IntN(3); scope > 0 {
			id = ids[scope-1]
			path = "/v1/jobs/" + id + "/lease"
		}
		code, body := g.do("POST", path, LeaseRequest{Worker: w, MaxTasks: 1 + rng.IntN(8)})
		if code == http.StatusTooManyRequests {
			delete(held, w) // quarantined
			continue
		}
		var lease struct {
			Job   string      `json:"job"`
			Tasks []LeaseTask `json:"tasks"`
		}
		if code != 200 || json.Unmarshal(body, &lease) != nil {
			t.Fatalf("POST %s: %d %s", path, code, body)
		}
		if id == "" {
			id = lease.Job
		}
		if held[w] == nil {
			held[w] = map[string][]LeaseTask{}
		}
		for _, lt := range lease.Tasks {
			// Granted again after its first lease ran out: one result to send.
			if !slices.ContainsFunc(held[w][id], func(h LeaseTask) bool { return h.Task == lt.Task }) {
				held[w][id] = append(held[w][id], lt)
			}
		}
		if w == "slow" && rng.IntN(3) > 0 {
			// Straggle: long enough to be hedged, or for leases to expire.
			now = now.Add(time.Duration(31+30*rng.IntN(2)) * time.Second)
			continue
		}
		if rng.IntN(4) == 0 {
			continue // sit on the results a little longer
		}
		vals := honestVals
		if w == "liar" {
			vals = lying
		}
		for _, id := range ids {
			rs := results(held[w][id], vals)
			delete(held[w], id)
			// Now and then re-send a settled task: a plain duplicate.
			g.coord.mu.Lock()
			j := g.coord.jobs[id]
			if st := j.tasks[rng.IntN(len(j.tasks))]; st.verified && w != "liar" &&
				!slices.ContainsFunc(rs, func(r TaskResult) bool { return r.Task == st.task.ID() }) {
				rs = append(rs, results([]LeaseTask{{Task: st.task.ID(), Lo: st.task.Lo, Hi: st.task.Hi}}, honestVals)...)
			}
			g.coord.mu.Unlock()
			if rs = g.sendable(id, w, rs); len(rs) == 0 {
				continue
			}
			code, body := g.do("POST", "/v1/jobs/"+id+"/results", ResultsUpload{Worker: w, Results: rs})
			if code != 200 && code != http.StatusTooManyRequests {
				t.Fatalf("POST results of %s to %s: %d %s", w, id, code, body)
			}
		}
	}
	if code, body := g.do("POST", "/v1/drain", nil); code != 200 {
		t.Fatalf("POST /v1/drain: %d %s", code, body)
	}
	<-g.coord.Drained()

	// The counter families of the final scrape.
	code, metrics := g.do("GET", "/metrics", nil)
	if code != 200 {
		t.Fatalf("GET /metrics: %d", code)
	}
	var counters []string
	counter := false
	for _, line := range strings.Split(strings.TrimSpace(string(metrics)), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			counter = strings.HasSuffix(line, " counter")
		} else if counter && !strings.HasPrefix(line, "#") {
			counters = append(counters, line)
		}
	}
	if err := g.coord.Close(); err != nil {
		t.Fatal(err)
	}

	var got strings.Builder
	sort.Strings(ids)
	for _, rel := range []string{walFileName, ids[0] + "/manifest-grid.jsonl", ids[1] + "/manifest-grid.jsonl"} {
		data, err := os.ReadFile(filepath.Join(dir, rel))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n%s", rel, data)
	}
	for _, sec := range []struct {
		name  string
		lines []string
	}{{"writes", g.writes}, {"counters", counters}, {"log", g.log}} {
		fmt.Fprintf(&got, "== %s\n%s\n", sec.name, strings.Join(sec.lines, "\n"))
	}
	return got.String()
}

func TestCommitGolden(t *testing.T) {
	// Between them the seeds move a straggling lease, give up on a split
	// audit and revoke a quarantined worker's live leases.
	var sb strings.Builder
	for _, seed := range []uint64{27, 114} {
		fmt.Fprintf(&sb, "==== seed %d\n%s", seed, goldenRun(t, seed))
	}
	got := sb.String()
	for _, want := range []string{`"t":"quarantine"`, `"t":"verify"`, `msg="lease moved"`, `msg="leases expired, tasks re-queued"`,
		"QUARANTINED", "revoked=4", "AUDIT MISMATCH", "audit split unresolved", "fair_share=", "drained"} {
		if !strings.Contains(got, want) {
			t.Errorf("the runs never produced %s; they are too tame to pin the commit path", want)
		}
	}
	for _, retired := range []string{`"t":"lease"`, `"t":"hedge"`, `"t":"expire"`, `"t":"priority"`} {
		if strings.Contains(got, retired) {
			t.Errorf("the runs journalled a %s record: a lease lives in memory only, and every job has an equal share", retired)
		}
	}

	const golden = "testdata/commit.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("the runs left different bytes behind than %s, first at line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("the runs left %d lines behind, %s holds %d", len(gl), golden, len(wl))
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
