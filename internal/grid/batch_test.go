package grid

// The unit of transport and durability is the upload body: everything a
// worker had finished goes out as one request, is checkpointed with one
// manifest append and journalled with one WAL write. These tests pin
// that a body is nothing but its entries ingested one after another —
// same acks, same states, same files — that a crash anywhere inside the
// append loses only unacknowledged work, and what the grouping saves.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dsa"
	"repro/internal/gridobs"
	"repro/internal/job"
	"repro/internal/linelog"
	"repro/internal/pra"
)

// fileWrites counts durable writes through the seam by file base name.
type fileWrites struct {
	mu sync.Mutex
	n  map[string]int
}

func (fw *fileWrites) install() (restore func()) {
	fw.n = map[string]int{}
	return job.SetWriterSeam(func(path string, w io.Writer) io.Writer {
		fw.mu.Lock()
		fw.n[filepath.Base(path)]++
		fw.mu.Unlock()
		return w
	})
}

func (fw *fileWrites) count(base string) int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.n[base]
}

func results(lts []LeaseTask, vals func(LeaseTask) []float64) []TaskResult {
	rs := make([]TaskResult, len(lts))
	for i, lt := range lts {
		rs[i] = TaskResult{Task: lt.Task, Values: vals(lt), ElapsedMS: 5}
	}
	return rs
}

func csvOf(t testing.TB, d dsa.Domain, s *dsa.Scores) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dsa.WriteCSV(&buf, d, s); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// walMultiset is dir's WAL as a sorted list of records.
func walMultiset(t testing.TB, dir string) []string {
	t.Helper()
	w, recs, skipped, err := openWAL(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("wal replay: %v (%d skipped)", err, skipped)
	}
	w.Close()
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%+v", r)
	}
	sort.Strings(out)
	return out
}

// outcome is everything a stream of uploads leaves behind.
type outcome struct {
	dir      string   // the coordinator's directory, closed
	acks     []string // one per uploaded entry, in stream order
	state    string   // every task's scheduling state, audits, quarantines
	wal      []string
	restored map[string][]float64 // what a restart would restore
	csv      string
}

// driveUploads runs one seeded scenario — honest workers, a straggler
// whose leases get hedged and expire, a worker that always lies, full
// auditing — against a fresh coordinator, sending each worker's finished
// results through submit. The scenario's choices depend only on its seed
// and on coordinator state, so two submit strategies that leave the same
// state after every stream see the same scenario.
func driveUploads(t *testing.T, seed uint64, submit func(c *Coordinator, id, worker string, rs []TaskResult) []string) outcome {
	t.Helper()
	return scenario{seed: seed, submit: submit}.run(t)
}

// scenario is driveUploads with its knobs out: what an honest worker
// answers (nil: honestVals; the liar is off by one from it), and a hook
// after every Lease (the submit strategy can call it after its own
// calls).
type scenario struct {
	seed      uint64
	submit    func(c *Coordinator, id, worker string, rs []TaskResult) []string
	honest    func(LeaseTask) []float64
	afterCall func(c *Coordinator, id string)
}

func scenarioSpec(t testing.TB) job.Spec {
	spec := gossipSpec(t)
	spec.Chunk = 1 // 36 tasks
	return spec
}

var scenarioOptions = CoordinatorOptions{LeaseTTL: time.Minute, AuditRate: 1, Hedge: true}

func (sc scenario) run(t testing.TB) outcome {
	t.Helper()
	seed, submit := sc.seed, sc.submit
	honest := sc.honest
	if honest == nil {
		honest = honestVals
	}
	lying := func(lt LeaseTask) []float64 {
		out := slices.Clone(honest(lt))
		out[0]++
		return out
	}
	spec := scenarioSpec(t)
	dir := t.TempDir()
	opts := scenarioOptions
	opts.Dir = dir
	coord := NewCoordinator(opts)
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(seed, 1))
	workers := []string{"good1", "good2", "good3", "liar", "slow", "slow"}
	held := map[string][]LeaseTask{}
	var out outcome

	complete := false
	for step := 0; !complete; step++ {
		if step == 2000 {
			t.Fatalf("seed %d: job did not complete in %d steps: %+v", seed, step, mustProgress(t, coord, id))
		}
		now = now.Add(time.Second)
		w := workers[rng.IntN(len(workers))]
		lease, err := coord.Lease(ctx, id, w, 1+rng.IntN(4))
		if sc.afterCall != nil {
			sc.afterCall(coord, id)
		}
		if errors.Is(err, errQuarantined) {
			delete(held, w)
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		complete = lease.Complete
		for _, lt := range lease.Tasks {
			// Granted again after its first lease ran out: one result to send.
			if !slices.ContainsFunc(held[w], func(h LeaseTask) bool { return h.Task == lt.Task }) {
				held[w] = append(held[w], lt)
			}
		}
		if w == "slow" && rng.IntN(3) > 0 {
			// Straggle: long enough to be hedged, or for leases to expire.
			now = now.Add(time.Duration(31+30*rng.IntN(2)) * time.Second)
			continue
		}
		if len(held[w]) == 0 || rng.IntN(4) == 0 {
			continue // sit on the results a little longer
		}
		vals := honest
		if w == "liar" {
			vals = lying
		}
		stream := results(held[w], vals)
		delete(held, w)
		// Now and then send a task nobody asked this worker for: a settled
		// one, its own under audit, another worker's, one still in the queue.
		coord.mu.Lock()
		j := coord.jobs[id]
		if st := j.tasks[rng.IntN(len(j.tasks))]; w != "liar" &&
			!slices.ContainsFunc(stream, func(r TaskResult) bool { return r.Task == st.id }) {
			stream = append(stream, results([]LeaseTask{{Task: st.id, Lo: st.task.Lo, Hi: st.task.Hi}}, honest)...)
		}
		coord.mu.Unlock()
		for i, ack := range submit(coord, id, w, stream) {
			out.acks = append(out.acks, fmt.Sprintf("%s %s %s", w, stream[i].Task, ack))
		}
	}

	scores, err := coord.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	out.csv = csvOf(t, spec.Domain, scores)
	coord.mu.Lock()
	j := coord.jobs[id]
	var sb strings.Builder
	for _, st := range j.tasks {
		fmt.Fprintf(&sb, "%s status=%d worker=%q hedge=%q by=%q verified=%v tainted=%v\n",
			st.id, st.status, st.worker, st.hedgeWorker, st.producer, st.verified, st.tainted)
	}
	var quarantined []string
	for name := range coord.quarantined {
		quarantined = append(quarantined, name)
	}
	sort.Strings(quarantined)
	fmt.Fprintf(&sb, "done=%d requeues=%d granted=%d audits=%d quarantined=%v\n",
		j.done, j.requeues, j.leasesGranted, j.audits, quarantined)
	out.state = sb.String()
	coord.mu.Unlock()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	out.dir = dir
	out.wal = walMultiset(t, dir)
	cp, err := job.OpenCheckpoint(filepath.Join(dir, id), spec)
	if err != nil {
		t.Fatal(err)
	}
	out.restored = cp.Completed()
	cp.Close()
	return out
}

func ackString(ack ResultAck, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("accepted=%v duplicate=%v", ack.Accepted, ack.Duplicate)
}

// TestBatchIngestMatchesOneByOne is the differential pin: the same
// stream of uploads — fresh results, duplicates, audit evidence, hedge
// winners and losers, a lying worker's values and the verdict on it —
// ends in the same acks, task states, WAL records, restorable checkpoint
// and CSV whether every entry is its own call or the stream is cut into
// random bodies.
func TestBatchIngestMatchesOneByOne(t *testing.T) {
	ctx := context.Background()
	oneByOne := func(c *Coordinator, id, worker string, rs []TaskResult) []string {
		acks := make([]string, len(rs))
		for i, r := range rs {
			acks[i] = ackString(c.Ingest(ctx, id, ResultUpload{worker, r.Task, r.Values, r.ElapsedMS}))
		}
		return acks
	}
	caught, expired, duplicates := 0, 0, 0
	for seed := uint64(1); seed <= 16; seed++ {
		cuts := rand.New(rand.NewPCG(seed, 2))
		grouped := func(c *Coordinator, id, worker string, rs []TaskResult) []string {
			var acks []string
			for len(rs) > 0 {
				n := 1 + cuts.IntN(len(rs))
				got, err := c.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: rs[:n]})
				for i := 0; i < n; i++ {
					if err != nil {
						acks = append(acks, ackString(ResultAck{}, err))
					} else {
						acks = append(acks, ackString(got[i], nil))
					}
				}
				rs = rs[n:]
			}
			return acks
		}
		a, b := driveUploads(t, seed, oneByOne), driveUploads(t, seed, grouped)
		if !slices.Equal(a.acks, b.acks) {
			t.Fatalf("seed %d: acks differ:\none by one %v\ngrouped    %v", seed, a.acks, b.acks)
		}
		if a.state != b.state {
			t.Fatalf("seed %d: final states differ:\none by one:\n%s\ngrouped:\n%s", seed, a.state, b.state)
		}
		if !slices.Equal(a.wal, b.wal) {
			t.Fatalf("seed %d: WAL record multisets differ:\none by one %v\ngrouped    %v", seed, a.wal, b.wal)
		}
		if len(a.restored) != len(b.restored) {
			t.Fatalf("seed %d: restores hold %d and %d tasks", seed, len(a.restored), len(b.restored))
		}
		for tid, vals := range a.restored {
			if !equalValues(vals, b.restored[tid]) {
				t.Fatalf("seed %d: task %s restores as %v one by one, %v grouped", seed, tid, vals, b.restored[tid])
			}
		}
		if a.csv != b.csv {
			t.Fatalf("seed %d: CSVs differ", seed)
		}
		t.Logf("seed %d: %d acks; %s", seed, len(a.acks), a.state[strings.LastIndex(a.state, "done="):])
		if strings.Contains(a.state, "quarantined=[liar]") {
			caught++
		}
		if !strings.Contains(a.state, " requeues=0 ") {
			expired++
		}
		for _, ack := range a.acks {
			if strings.HasSuffix(ack, "duplicate=true") {
				duplicates++
			}
		}
	}
	// The scenarios must have exercised what they are for.
	if caught < 8 || expired < 8 || duplicates < 100 {
		t.Fatalf("over 16 seeds: liar caught in %d, leases expired in %d, %d duplicate acks; the scenarios are too tame", caught, expired, duplicates)
	}
}

// TestBatchAppendCrashPoints cuts a four-line manifest append at every
// byte offset, as a crash inside the write would. A coordinator
// restarted over the torn directory restores exactly the tasks whose
// line is whole — linelog's rule, line by line — re-arms the leases of
// the rest from the WAL, and once those expire a worker re-runs them:
// the CSV is byte-identical to single-process job.Run at every cut.
func TestBatchAppendCrashPoints(t *testing.T) {
	spec := auditSpec(t, 6) // 6 points x 2 measures / chunk 2 = 6 tasks
	want := csvOf(t, spec.Domain, wantScores(t, spec))
	ctx := context.Background()

	// The reference values, so the batch holds what a worker would send.
	honest := map[string][]float64{}
	var mu sync.Mutex
	if err := job.ExecTasks(ctx, spec, spec.Tasks(), job.ExecOptions{Workers: 1}, func(task job.Task, vals []float64, _ time.Duration) error {
		mu.Lock()
		honest[task.ID()] = vals
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := coord.Lease(ctx, id, "w1", 4)
	if err != nil || len(lease.Tasks) != 4 {
		t.Fatalf("lease = %+v, %v; want 4 tasks", lease, err)
	}
	// What a kill -9 inside the append leaves: the WAL as of the grant.
	walAtCrash, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, id, "manifest-grid.jsonl")
	var fw fileWrites
	restore := fw.install()
	_, err = coord.IngestResults(ctx, id, ResultsUpload{Worker: "w1",
		Results: results(lease.Tasks, func(lt LeaseTask) []float64 { return honest[lt.Task] })})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if n := fw.count("manifest-grid.jsonl"); n != 1 {
		t.Fatalf("the four-task body made %d manifest writes, want 1", n)
	}
	full, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := os.ReadFile(filepath.Join(dir, id, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	if n := bytes.Count(full, []byte("\n")); n != 4 {
		t.Fatalf("manifest holds %d lines after the batch, want 4", n)
	}

	for cut := 0; cut <= len(full); cut++ {
		whole := bytes.Count(full[:cut], []byte("\n"))
		torn := t.TempDir()
		if err := os.MkdirAll(filepath.Join(torn, id), 0o755); err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string][]byte{
			filepath.Join(torn, walFileName):               walAtCrash,
			filepath.Join(torn, id, "spec.json"):           specJSON,
			filepath.Join(torn, id, "manifest-grid.jsonl"): full[:cut],
		} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c2 := NewCoordinator(CoordinatorOptions{Dir: torn, LeaseTTL: time.Minute})
		if _, err := c2.AddJob(spec); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		snap := mustProgress(t, c2, id)
		if snap.Done != whole || snap.Leased != 4-whole {
			t.Fatalf("cut %d of %d: restart restored %+v, want the %d whole lines done and the other %d leases re-armed",
				cut, len(full), snap, whole, 4-whole)
		}
		c2.mu.Lock()
		for i, lt := range lease.Tasks {
			if got := c2.jobs[id].task(lt.Task).values; (got != nil) != (i < whole) || (got != nil && !equalValues(got, honest[lt.Task])) {
				t.Fatalf("cut %d: task %s (line %d of the batch) restored as %v with %d whole lines", cut, lt.Task, i, got, whole)
			}
		}
		// The dead worker's re-armed leases run out.
		c2.now = func() time.Time { return time.Now().Add(time.Hour) }
		c2.mu.Unlock()
		// A full re-run at every boundary, around it, and a sample between.
		if atEdge := cut == len(full) || full[cut] == '\n' || (cut > 0 && full[cut-1] == '\n'); atEdge || cut%16 == 0 {
			srv := httptest.NewServer(c2.Handler())
			if err := Work(ctx, srv.URL, id, WorkerOptions{Name: "second-life", Workers: 1}); err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			srv.Close()
			scores, err := c2.WaitComplete(ctx, id)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if csvOf(t, spec.Domain, scores) != want {
				t.Fatalf("cut %d: CSV after the torn batch append is not byte-identical to job.Run", cut)
			}
			if snap := mustProgress(t, c2, id); snap.Requeues != 4-whole {
				t.Fatalf("cut %d: %d tasks re-ran, want the %d whose lines were lost", cut, snap.Requeues, 4-whole)
			}
		}
		c2.Close()
	}
}

// TestLeaseIsOneDurableRoundTrip counts what a four-task lease — one
// joint execution unit of a delivery job — costs end to end: one results
// request, one manifest write, and two WAL writes (the grant and the
// ingest).
func TestLeaseIsOneDurableRoundTrip(t *testing.T) {
	spec := deliverySpec(t)
	spec.Points = spec.Points[:spec.Chunk] // one chunk: four tasks, one lease
	want := csvOf(t, spec.Domain, wantScores(t, spec))
	coord := NewCoordinator(CoordinatorOptions{Dir: t.TempDir(), LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	var uploads atomic.Int32
	inner := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/results") {
			uploads.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	metrics := gridobs.NewWorkerMetrics(nil)
	var fw fileWrites
	restore := fw.install()
	err = Work(context.Background(), srv.URL, id, WorkerOptions{Name: "w1", Metrics: metrics})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if n, m, w := uploads.Load(), fw.count("manifest-grid.jsonl"), fw.count(walFileName); n != 1 || m != 1 || w != 2 {
		t.Fatalf("a four-task lease cost %d results requests, %d manifest writes, %d WAL writes; want 1, 1, 2", n, m, w)
	}
	if got := metrics.Snapshot().Uploads; got != 4 {
		t.Fatalf("worker_uploads_total = %v, want the 4 acknowledged tasks", got)
	}
	scores, err := coord.WaitComplete(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if csvOf(t, spec.Domain, scores) != want {
		t.Fatal("CSV of the one-round-trip lease is not byte-identical to job.Run")
	}
}

// TestBatchRefusedWhole: one bad entry — an unknown task, a wrong value
// count, nothing at all — or a quarantined sender refuses the body, and
// nothing of it is recorded, journalled or marked.
func TestBatchRefusedWhole(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lease, err := coord.Lease(ctx, id, "w1", 4)
	if err != nil || len(lease.Tasks) != 4 {
		t.Fatalf("lease = %+v, %v; want 4 tasks", lease, err)
	}
	good := results(lease.Tasks, honestVals)
	unknown := slices.Clone(good)
	unknown[3].Task = "no-such-task"
	short := slices.Clone(good)
	short[2].Values = short[2].Values[:1]
	coord.Quarantine("banned")

	var fw fileWrites
	restore := fw.install()
	defer restore()
	for name, tc := range map[string]struct {
		up   ResultsUpload
		want error
	}{
		"unknown task":       {ResultsUpload{Worker: "w1", Results: unknown}, errUnknownTask},
		"wrong value count":  {ResultsUpload{Worker: "w1", Results: short}, nil},
		"no results":         {ResultsUpload{Worker: "w1"}, nil},
		"quarantined worker": {ResultsUpload{Worker: "banned", Results: good}, errQuarantined},
	} {
		acks, err := coord.IngestResults(ctx, id, tc.up)
		if err == nil || acks != nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Fatalf("%s: acks %v, err %v; want the body refused (%v)", name, acks, err, tc.want)
		}
	}
	if n := fw.count("manifest-grid.jsonl") + fw.count(walFileName); n != 0 {
		t.Fatalf("refused bodies made %d durable writes", n)
	}
	if snap := mustProgress(t, coord, id); snap.Done != 0 || snap.Leased != 4 {
		t.Fatalf("after refused bodies: %+v, want nothing done and the 4 leases intact", snap)
	}
	acks, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: "w1", Results: good})
	if err != nil || len(acks) != 4 {
		t.Fatalf("the well-formed body: %v, %v", acks, err)
	}
	for i, ack := range acks {
		if !ack.Accepted || ack.Duplicate {
			t.Fatalf("ack %d of the well-formed body = %+v, want a fresh accept (a refused body must leave no claim behind)", i, ack)
		}
	}
}

// TestBatchAppendFailureLeavesLeased: a disk-full manifest append fails
// the whole body with the typed write error; no task of it is done,
// acked or journalled, every lease stands, and the same body goes
// through once space returns.
func TestBatchAppendFailureLeavesLeased(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lease, err := coord.Lease(ctx, id, "w1", 4)
	if err != nil || len(lease.Tasks) != 4 {
		t.Fatalf("lease = %+v, %v; want 4 tasks", lease, err)
	}
	body := ResultsUpload{Worker: "w1", Results: results(lease.Tasks, honestVals)}

	restore := job.SetWriterSeam(chaos.NewFileFaults(1, 0, 1.0, "manifest-grid").Wrap) // every manifest write: ENOSPC
	acks, err := coord.IngestResults(ctx, id, body)
	restore()
	var werr *linelog.WriteError
	if acks != nil || !errors.As(err, &werr) || !errors.Is(err, syscall.ENOSPC) || werr.Op != "append" {
		t.Fatalf("ingest under disk-full: acks %v, err %v; want *linelog.WriteError{Op: append} wrapping ENOSPC", acks, err)
	}
	if snap := mustProgress(t, coord, id); snap.Done != 0 || snap.Leased != 4 {
		t.Fatalf("after the failed append: %+v, want nothing done and all 4 tasks still leased", snap)
	}
	for _, rec := range walMultiset(t, dir) {
		if strings.Contains(rec, "T:"+walIngest) {
			t.Fatalf("the failed body reached the WAL: %s", rec)
		}
	}
	acks, err = coord.IngestResults(ctx, id, body)
	if err != nil || len(acks) != 4 || acks[0].Duplicate || acks[3].Duplicate {
		t.Fatalf("re-sent body after space returned: %+v, %v; want 4 fresh accepts", acks, err)
	}
	cp, err := job.OpenCheckpoint(filepath.Join(dir, id), gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if n := len(cp.Completed()); n != 4 {
		t.Fatalf("checkpoint restores %d tasks, want the 4 of the body that went through", n)
	}
}

// dropFirstResultsResponse delivers the first results request and loses
// its response, as a connection reset after the coordinator answered.
type dropFirstResultsResponse struct {
	dropped atomic.Bool
	rids    chan string
}

func (d *dropFirstResultsResponse) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/results") {
		d.rids <- req.Header.Get(gridobs.RequestIDHeader)
		if d.dropped.CompareAndSwap(false, true) {
			resp.Body.Close()
			return nil, errors.New("connection reset after the response was written")
		}
	}
	return resp, err
}

// TestBatchRetryAckedDuplicate: the response to a body is lost, the
// client re-sends it under the same request ID, and the coordinator —
// which recorded everything the first time — acks every entry as a
// duplicate and writes nothing again.
func TestBatchRetryAckedDuplicate(t *testing.T) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	defer func() { retryDelay = orig }()

	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx := context.Background()
	lease, err := coord.Lease(ctx, id, "w1", 4)
	if err != nil || len(lease.Tasks) != 4 {
		t.Fatalf("lease = %+v, %v; want 4 tasks", lease, err)
	}

	transport := &dropFirstResultsResponse{rids: make(chan string, 2)}
	var fw fileWrites
	restore := fw.install()
	var ack ResultsAck
	info, err := call(ctx, &http.Client{Transport: transport}, http.MethodPost, routeURL(srv.URL, pathResults, id),
		ResultsUpload{Worker: "w1", Results: results(lease.Tasks, honestVals)}, &ack)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if first, second := <-transport.rids, <-transport.rids; info.attempts != 2 || first != second || first != info.requestID {
		t.Fatalf("%d attempts under request IDs %q, %q (call %q); want 2 under one ID", info.attempts, first, second, info.requestID)
	}
	if len(ack.Acks) != 4 {
		t.Fatalf("re-sent body got %d acks, want 4", len(ack.Acks))
	}
	for i, a := range ack.Acks {
		if !a.Accepted || !a.Duplicate {
			t.Fatalf("ack %d of the re-sent body = %+v, want accepted as a duplicate", i, a)
		}
	}
	if m, w := fw.count("manifest-grid.jsonl"), fw.count(walFileName); m != 1 || w != 1 {
		t.Fatalf("the body and its retry made %d manifest and %d WAL writes, want 1 and 1", m, w)
	}
	if snap := mustProgress(t, coord, id); snap.Done != 4 {
		t.Fatalf("after the retried body: %+v, want 4 done", snap)
	}
}

// TestExpireJournalsOneWrite: a mass expiry reaches the WAL as one write
// whose records follow the job's task order — expire, then the lease of
// a hedge promoted in its place — not the task map's.
func TestExpireJournalsOneWrite(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, Hedge: true, maxLease: 8})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	lease := mustLease(t, coord, id, "slow", 8)
	now = now.Add(31 * time.Second)
	ctx := context.Background()
	hedges, err := coord.Lease(ctx, id, "fast", 2) // races the first two; pending work comes first, so drain it
	if err != nil {
		t.Fatal(err)
	}
	for len(hedges.Tasks) > 0 && hedges.Tasks[0].Task != lease.Tasks[0].Task {
		if hedges, err = coord.Lease(ctx, id, "fast", 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(hedges.Tasks) != 2 || hedges.Tasks[1].Task != lease.Tasks[1].Task {
		t.Fatalf("hedges = %+v, want the first two of %+v", hedges.Tasks, lease.Tasks)
	}
	before := len(walMultiset(t, dir))

	now = now.Add(35 * time.Second) // slow's 8 leases are dead, fast's 2 hedges live
	var fw fileWrites
	restore := fw.install()
	snap := mustProgress(t, coord, id)
	restore()
	if snap.Requeues != 8 {
		t.Fatalf("progress after the expiry = %+v, want 8 requeues", snap)
	}
	if n := fw.count(walFileName); n != 1 {
		t.Fatalf("expiring 8 leases made %d WAL writes, want 1", n)
	}
	w, recs, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	var got, want []string
	for _, r := range recs[before:] {
		got = append(got, r.T+" "+r.Task+" "+r.Worker)
	}
	for i, lt := range lease.Tasks {
		want = append(want, walExpire+" "+lt.Task+" slow")
		if i < 2 {
			want = append(want, walLease+" "+lt.Task+" fast")
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("expiry journalled\n%v\nwant, in task order,\n%v", got, want)
	}
}

// TestGrantCursor: granting a job to completion looks at each task once
// (the scan used to restart at task 0 on every grant: O(tasks²) map
// probes under the coordinator lock), and a task that returns to pending
// behind the cursor — its lease expired, its producer was quarantined —
// is the next one granted.
func TestGrantCursor(t *testing.T) {
	pts := pra.Domain().Space().Enumerate()[:1366]
	spec := job.Spec{Domain: pra.Domain(), Points: pts, Cfg: dsa.Config{Peers: 10, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}, Chunk: 1}
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	j := coord.jobs[id]
	order := make([]string, len(j.tasks))
	for i, st := range j.tasks {
		order[i] = st.id
	}
	coord.mu.Unlock()
	if len(order) < 4096 {
		t.Fatalf("job has %d tasks, the test wants at least 4096", len(order))
	}
	ctx := context.Background()
	zeros := func(lt LeaseTask) []float64 { return make([]float64, lt.Hi-lt.Lo) }
	leaseOf := func(worker string, want ...string) []LeaseTask {
		t.Helper()
		lease, err := coord.Lease(ctx, id, worker, 4)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, lt := range lease.Tasks {
			got = append(got, lt.Task)
		}
		if want != nil && !slices.Equal(got, want) {
			t.Fatalf("lease to %s = %v, want %v", worker, got, want)
		}
		return lease.Tasks
	}
	ingest := func(worker string, lts []LeaseTask) {
		t.Helper()
		if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: results(lts, zeros)}); err != nil {
			t.Fatal(err)
		}
	}

	leaseOf("dead", order[0:4]...) // never heard from again
	ingest("early", leaseOf("early", order[4:8]...))
	ingest("w", leaseOf("w", order[8:12]...))
	now = now.Add(2 * time.Minute) // dead's leases expire: tasks 0-3 are pending again, behind the cursor
	ingest("w", leaseOf("w", order[0:4]...))
	coord.Quarantine("early") // its unaudited tasks 4-7 are invalidated and re-queued
	ingest("w", leaseOf("w", order[4:8]...))
	for next := 12; ; next += 4 {
		lts := leaseOf("w")
		if len(lts) == 0 {
			break
		}
		if lts[0].Task != order[next] {
			t.Fatalf("lease after %d tasks starts at %s, want %s", next, lts[0].Task, order[next])
		}
		ingest("w", lts)
	}
	if snap := mustProgress(t, coord, id); !snap.Complete {
		t.Fatalf("job incomplete: %+v", snap)
	}
	coord.mu.Lock()
	scanned := j.scanned
	coord.mu.Unlock()
	// Every task once, the 8 re-queued ones and what lay between them and
	// the cursor once more.
	if limit := len(order) + 24; scanned > limit {
		t.Fatalf("granting %d tasks probed the task table %d times, want at most %d", len(order), scanned, limit)
	}
}
