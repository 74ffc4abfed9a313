package grid

// The unit of transport and durability is the upload body: everything a
// worker had finished goes out as one request and is journalled with one
// append of its value lines to the job's file. That a body is its
// entries and that a crash inside its append loses only unacknowledged
// work is FuzzSchedule's (invariants 10 and 3); these tests pin what the
// grouping saves, a body refused or failed whole, and the write grouping
// of grants and expiries.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
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

// journalRecords is every scheduler record under dir: the quarantine
// journal's, then each job's file's in job ID order, named by its job.
func journalRecords(t testing.TB, dir string) []walRecord {
	t.Helper()
	w, recs, skipped, err := openWAL(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("wal replay: %v (%d skipped)", err, skipped)
	}
	w.Close()
	paths, err := filepath.Glob(filepath.Join(dir, "*", "manifest-grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		linelog.Lines(data, func(line []byte) {
			if r, ok := decodeWALLine(line); ok {
				r.Job = filepath.Base(filepath.Dir(path))
				recs = append(recs, r)
			}
		})
	}
	return recs
}

// leasesEnded counts worker's leases that ended without its result, by
// the coordinator's log: a move or an expiry naming it as the holder.
func leasesEnded(log, worker string) int {
	n := 0
	for _, line := range strings.Split(log, "\n") {
		if (strings.Contains(line, `msg="lease moved"`) || strings.Contains(line, `msg="leases expired, tasks re-queued"`)) &&
			strings.Contains(line, " worker="+worker+" ") {
			_, tasks, _ := strings.Cut(line, " tasks=")
			k, _ := strconv.Atoi(strings.Fields(tasks)[0])
			n += k
		}
	}
	return n
}

// walMultiset is dir's scheduler records as a sorted list.
func walMultiset(t testing.TB, dir string) []string {
	t.Helper()
	recs := journalRecords(t, dir)
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%+v", r)
	}
	sort.Strings(out)
	return out
}

// scenarioSpec and scenarioOptions are the job and options of the commit
// golden's runs and of FuzzRouteBodies.
func scenarioSpec(t testing.TB) job.Spec {
	spec := gossipSpec(t)
	spec.Chunk = 1 // 36 tasks
	return spec
}

var scenarioOptions = CoordinatorOptions{LeaseTTL: time.Minute, AuditRate: 1}

// TestLeaseIsOneDurableRoundTrip counts what a four-task lease — one
// joint execution unit of a delivery job — costs end to end: one results
// request and one write to the job's file (the value lines; a grant
// writes nothing), none to the quarantine journal.
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
	if n, m, w := uploads.Load(), fw.count("manifest-grid.jsonl"), fw.count(walFileName); n != 1 || m != 1 || w != 0 {
		t.Fatalf("a four-task lease cost %d results requests, %d writes to the job's file, %d to the quarantine journal; want 1, 1, 0", n, m, w)
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
	lease := leaseUpTo(t, coord, id, "w1", 4)
	if len(lease) != 4 {
		t.Fatalf("leased %+v, want 4 tasks", lease)
	}
	good := results(lease, honestVals)
	unknown := slices.Clone(good)
	unknown[3].Task = "no-such-task"
	short := slices.Clone(good)
	short[2].Values = short[2].Values[:1]
	quarantine(coord, "banned")

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
	lease := leaseUpTo(t, coord, id, "w1", 4)
	if len(lease) != 4 {
		t.Fatalf("leased %+v, want 4 tasks", lease)
	}
	body := ResultsUpload{Worker: "w1", Results: results(lease, honestVals)}

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
	if data, err := os.ReadFile(filepath.Join(dir, id, "manifest-grid.jsonl")); err != nil || bytes.Contains(data, []byte(`{"task":`)) {
		t.Fatalf("the failed body reached the job's file (%v):\n%s", err, data)
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

// TestExpireWritesNothing: a mass expiry writes nothing to the job's
// file and leaves the leases that moved to a hedger before it alone: they
// are not the straggler's to lose. The log names the straggler once per
// move and once per expiry.
func TestExpireWritesNothing(t *testing.T) {
	dir := t.TempDir()
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, Logger: logs.logger()})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseUpTo(t, coord, id, "slow", 8) // probes: slow has no ingested task
	if len(lease) != 8 {
		t.Fatalf("slow leased %+v, want 8 tasks", lease)
	}
	now = now.Add(31 * time.Second)
	ctx := context.Background()
	hedges, err := coord.Lease(ctx, id, "fast", 2) // takes over the first two; pending work comes first, so drain it
	if err != nil {
		t.Fatal(err)
	}
	for len(hedges.Tasks) > 0 && hedges.Tasks[0].Task != lease[0].Task {
		if hedges, err = coord.Lease(ctx, id, "fast", 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(hedges.Tasks) != 2 || hedges.Tasks[1].Task != lease[1].Task {
		t.Fatalf("hedges = %+v, want the first two of %+v", hedges.Tasks, lease)
	}

	now = now.Add(35 * time.Second) // slow's 6 leases are dead, the 2 that moved to fast live
	var fw fileWrites
	restore := fw.install()
	snap := mustProgress(t, coord, id)
	restore()
	if snap.Requeues != 6 {
		t.Fatalf("progress after the expiry = %+v, want 6 requeues", snap)
	}
	if n := fw.count("manifest-grid.jsonl"); n != 0 {
		t.Fatalf("expiring 6 leases made %d writes to the job's file, want none", n)
	}
	coord.mu.Lock()
	var pending []string
	for _, st := range coord.jobs[id].tasks {
		if st.status == taskPending && slices.ContainsFunc(lease, func(lt LeaseTask) bool { return lt.Task == st.task.ID() }) {
			pending = append(pending, st.task.ID())
		}
	}
	coord.mu.Unlock()
	var want []string
	for _, lt := range lease[2:] {
		want = append(want, lt.Task)
	}
	if !slices.Equal(pending, want) {
		t.Fatalf("re-queued %v, want slow's unmoved %v", pending, want)
	}
	if moved, ended := leasesEnded(logs.String(), "slow"), strings.Count(logs.String(), `msg="leases expired, tasks re-queued"`); moved != 8 || ended != 1 {
		t.Fatalf("the log ends %d of slow's leases in %d expiry records, want 8 (2 moved, 6 expired) and 1:\n%s", moved, ended, logs.String())
	}
}

// TestHeartbeatedStragglerMoves: under default options, a holder that
// heartbeats its lease past the straggler bar and never uploads loses it
// to an idle worker that asks, and the job completes on that worker's
// upload. No other rule ends a lease that is still being renewed.
func TestHeartbeatedStragglerMoves(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	spec := gossipSpec(t)
	spec.Points = spec.Points[:spec.Chunk] // one chunk group: hung's probe holds the whole job
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseUpTo(t, coord, id, "hung", 8)
	var tasks []string
	for _, lt := range lease {
		tasks = append(tasks, lt.Task)
	}
	ctx := context.Background()
	for range 4 { // renewed every 20 s, two minutes in all
		now = now.Add(20 * time.Second)
		hb, err := coord.Heartbeat(ctx, id, HeartbeatRequest{Worker: "hung", Tasks: tasks})
		if err != nil || len(hb.Renewed) != len(tasks) {
			t.Fatalf("hung's heartbeat = %+v, %v; want all of %v renewed", hb, err, tasks)
		}
	}
	moved, err := coord.Lease(ctx, id, "idle", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved.Tasks) != len(lease) {
		t.Fatalf("idle was granted %+v, want hung's %d straggling leases", moved.Tasks, len(lease))
	}
	acks, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: "idle", Results: results(moved.Tasks, honestVals)})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range acks {
		if !a.Accepted || a.Duplicate {
			t.Fatalf("idle's upload was acked %+v, want it recorded", acks)
		}
	}
	if snap := mustProgress(t, coord, id); !snap.Complete {
		t.Fatalf("after idle's upload: %+v, want the job complete", snap)
	}
}

// TestStragglerScanBound: a poll that finds no straggler lets the next
// ones skip the scan only until the *oldest* lease could straggle, not
// the newest.
func TestStragglerScanBound(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute}) // straggler bar: 30 s
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	spec := gossipSpec(t)
	spec.Points = spec.Points[:2*spec.Chunk] // two chunk groups, one probe each
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lease := func(worker string) []string {
		t.Helper()
		resp, err := coord.Lease(ctx, id, worker, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, lt := range resp.Tasks {
			got = append(got, lt.Task)
		}
		return got
	}
	early := lease("early")
	now = now.Add(20 * time.Second)
	if late := lease("late"); len(late) == 0 {
		t.Fatal("late was granted nothing; the job should have a second chunk group")
	}
	now = now.Add(5 * time.Second)
	if got := lease("idle"); got != nil {
		t.Fatalf("idle was granted %v with no lease 30 s old", got)
	}
	now = now.Add(10 * time.Second) // early's lease is 35 s old, late's 15 s
	if got := lease("idle"); !slices.Equal(got, early) {
		t.Fatalf("idle was granted %v, want early's straggling %v", got, early)
	}
}

// TestExpiryAfterSkippedPoll: a poll before the earliest deadline the
// last expiry walk saw skips the walk, and a lease that lapses after such a
// poll still expires on the next one.
func TestExpiryAfterSkippedPoll(t *testing.T) {
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	leaseUpTo(t, coord, id, "first", 2) // deadline t+60 s
	now = now.Add(20 * time.Second)
	leaseUpTo(t, coord, id, "second", 2) // deadline t+80 s
	for _, step := range []struct {
		at       time.Duration // since the first lease
		requeues int
	}{
		{61 * time.Second, 2}, // first's lease lapsed; the walk sees second's deadline
		{70 * time.Second, 2}, // before it: no walk
		{81 * time.Second, 4}, // second's lapsed since
	} {
		now = time.Unix(1000, 0).Add(step.at)
		if snap := mustProgress(t, coord, id); snap.Requeues != step.requeues || snap.Leased != 4-step.requeues {
			t.Fatalf("at %v: %+v, want %d leases expired", step.at, snap, step.requeues)
		}
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
		order[i] = st.task.ID()
	}
	coord.mu.Unlock()
	if len(order) < 4096 {
		t.Fatalf("job has %d tasks, the test wants at least 4096", len(order))
	}
	ctx := context.Background()
	zeros := func(lt LeaseTask) []float64 { return make([]float64, lt.Hi-lt.Lo) }
	leaseOf := func(worker string, want ...string) []LeaseTask {
		t.Helper()
		lease, err := coord.Lease(ctx, id, worker, 3) // one chunk group of pra's 3 measures
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

	leaseOf("dead", order[0:3]...) // never heard from again
	ingest("early", leaseOf("early", order[3:6]...))
	ingest("w", leaseOf("w", order[6:9]...))
	now = now.Add(2 * time.Minute) // dead's leases expire: tasks 0-2 are pending again, behind the cursor
	ingest("w", leaseOf("w", order[0:3]...))
	quarantine(coord, "early") // its unaudited tasks 3-5 are invalidated and re-queued
	ingest("w", leaseOf("w", order[3:6]...))
	for next := 9; ; next += 3 {
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
	// Every task once, the 6 re-queued ones and what lay between them and
	// the cursor once more.
	if limit := len(order) + 24; scanned > limit {
		t.Fatalf("granting %d tasks probed the task table %d times, want at most %d", len(order), scanned, limit)
	}
}

// BenchmarkTailLeasePoll is an idle worker's lease poll in a job's tail:
// every task leased to a worker that heartbeats on, none old enough to
// move. The straggler bound answers it without walking the task table.
func BenchmarkTailLeasePoll(b *testing.B) {
	pts := pra.Domain().Space().Enumerate()
	spec := job.Spec{Domain: pra.Domain(), Points: pts, Cfg: dsa.Config{Peers: 10, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}, Chunk: 1}
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	held := 0
	for {
		lease, err := coord.Lease(ctx, id, "holder", 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		if len(lease.Tasks) == 0 {
			break
		}
		held += len(lease.Tasks)
	}
	now = now.Add(time.Second)
	for b.Loop() {
		if lease, err := coord.Lease(ctx, id, "idle", 3); err != nil || len(lease.Tasks) != 0 {
			b.Fatalf("idle worker got %d tasks, err %v", len(lease.Tasks), err)
		}
	}
	b.ReportMetric(float64(held), "tasks")
}
