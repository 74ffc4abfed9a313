package grid

// Leases are soft state: a grant, a move and an expiry change memory only,
// so a job's file holds value lines, tombstones and verdicts, a restart
// starts every task not done pending — at the price of re-running what
// live workers held at the crash — and a directory an older coordinator
// wrote, lease and priority records and all, still loads.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/linelog"
)

// truthVals is every task's value as an honest worker computes it.
func truthVals(t testing.TB, spec job.Spec) func(LeaseTask) []float64 {
	t.Helper()
	truth := map[string][]float64{}
	if err := job.ExecTasks(context.Background(), spec, spec.Tasks(), job.ExecOptions{Workers: 1}, func(jt job.Task, vals []float64, _ time.Duration) error {
		truth[jt.ID()] = vals
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return func(lt LeaseTask) []float64 { return truth[lt.Task] }
}

// TestJobFileHoldsNoLeases: a job run through grants, expiries and moves —
// on a one-minute TTL and a virtual clock, a worker that dies holding a
// lease, one that heartbeats and never uploads, and one that computes —
// leaves a job file of value lines alone, and its CSV is job.Run's.
func TestJobFileHoldsNoLeases(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	spec := gossipSpec(t)
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, vals := context.Background(), truthVals(t, spec)
	leaseUpTo(t, coord, id, "dead", 2)
	var slow []string
	for _, lt := range leaseUpTo(t, coord, id, "slow", 2) {
		slow = append(slow, lt.Task)
	}
	for round := 0; !mustProgress(t, coord, id).Complete; round++ {
		if round == 50 {
			t.Fatalf("the job did not complete: %+v", mustProgress(t, coord, id))
		}
		now = now.Add(20 * time.Second)
		if _, err := coord.Heartbeat(ctx, id, HeartbeatRequest{Worker: "slow", Tasks: slow}); err != nil {
			t.Fatal(err)
		}
		if round < 3 {
			continue // nobody asks until dead's lease expired
		}
		lease, err := coord.Lease(ctx, id, "fast", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) > 0 {
			if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: "fast", Results: results(lease.Tasks, vals)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var scrape bytes.Buffer
	coord.Metrics().WritePrometheus(&scrape)
	for _, counter := range []string{"grid_leases_granted_total", "grid_lease_hedged_total", "grid_lease_expiries_total"} {
		if !strings.Contains(scrape.String(), "\n"+counter+" ") || strings.Contains(scrape.String(), "\n"+counter+" 0\n") {
			t.Fatalf("the run made no %s:\n%s", counter, scrape.String())
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, id, "manifest-grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	linelog.Lines(data, func(line []byte) {
		lines++
		if _, ok := decodeWALLine(line); ok {
			t.Errorf("the job's file holds a scheduler record: %s", line)
		}
	})
	if lines != len(spec.Tasks()) {
		t.Fatalf("the job's file holds %d lines, want one value line per task (%d)", lines, len(spec.Tasks()))
	}
	scores, ok, err := coord.Scores(id)
	if err != nil || !ok || csvOf(t, spec.Domain, scores) != csvOf(t, spec.Domain, wantScores(t, spec)) {
		t.Fatalf("the job's CSV is not job.Run's (%v, %v)", ok, err)
	}
}

// restartWithLeases: three honest workers each hold a probe grant of the
// world's 8-task job when the coordinator is killed; the fault-free finish
// then completes it on the new coordinator.
var restartWithLeases = schedule(false, "hhh", 1).started(0).started(1).started(2).kill()

// TestRestartDuplicatesBounded: a restart starts the leases live workers
// held pending, so a task can be computed twice — by its holder, which
// still uploads, and by whoever the new coordinator grants it to — but no
// more point-measures are computed twice than the leases outstanding at the
// crash held.
func TestRestartDuplicatesBounded(t *testing.T) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	t.Cleanup(func() { retryDelay = orig })
	outstanding, size := 0, map[string]int{}
	w := runWorld(t, restartWithLeases, false, func(w *world) {
		if w.step != len(w.steps)-2 { // the world before the kill
			return
		}
		w.locked(func(c *Coordinator) {
			for _, st := range c.jobs[w.ids[0]].tasks {
				size[st.task.ID()] = st.task.Hi - st.task.Lo
				if st.status == taskLeased {
					outstanding += size[st.task.ID()]
				}
			}
		})
	})
	dup := 0
	for _, ack := range w.acks {
		if f := strings.Fields(ack); len(f) == 4 && f[3] == "duplicate=true" {
			dup += size[f[1]]
		}
	}
	if outstanding == 0 || dup > outstanding {
		t.Fatalf("%d point-measures computed twice, %d outstanding at the crash: want at most that many", dup, outstanding)
	}
	t.Logf("%d of the %d point-measures on lease at the crash were computed twice", dup, outstanding)
}

// leaseRecordsSpec is the job of testdata/lease-records-dir.
func leaseRecordsSpec() job.Spec {
	return job.Spec{Domain: gossip.Domain(), Points: gossip.Domain().Space().Enumerate()[:72], Cfg: tinyGossipCfg(), Chunk: 1}
}

// TestLeaseRecordsDirectory: a directory an older coordinator wrote loads.
// Its one job (144 tasks, full auditing, a one-second TTL on a virtual
// clock) saw a worker die on its lease, one heartbeat without uploading
// until its leases moved, and two honest workers sit on every ninth grant;
// it stopped with 138 values, 132 verifies and 6 leases held, its file
// holding 342 lease, hedge and expire records. The records are counted
// and logged once, every task without a value line starts pending, and
// two fresh workers finish the job byte-identical to job.Run.
func TestLeaseRecordsDirectory(t *testing.T) {
	dir := crashCopy(t, filepath.Join("testdata", "lease-records-dir"))
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Second, AuditRate: 1, Logger: logs.logger()})
	defer coord.Close()
	spec := leaseRecordsSpec()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	var skipped []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "scheduler records of an older coordinator") {
			skipped = append(skipped, line)
		}
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "records=342") || !strings.Contains(logs.String(), " replayed=270\n") {
		t.Fatalf("the older coordinator's 342 lease records were logged as %q, want one line counting them and 270 lines replayed:\n%s", skipped, logs.String())
	}
	if snap := mustProgress(t, coord, id); snap.Done != 138 || snap.Leased != 0 || snap.Pending != 6 {
		t.Fatalf("restored %+v, want the file's 138 values and the 6 tasks on lease at the stop pending", snap)
	}
	ctx, vals := context.Background(), truthVals(t, spec)
	for round := 0; !mustProgress(t, coord, id).Complete; round++ {
		if round == 100 {
			t.Fatalf("the job did not complete: %+v", mustProgress(t, coord, id))
		}
		worker := []string{"v0", "v1"}[round%2]
		lease, err := coord.Lease(ctx, id, worker, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) > 0 {
			if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: results(lease.Tasks, vals)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	scores, ok, err := coord.Scores(id)
	if err != nil || !ok || csvOf(t, spec.Domain, scores) != csvOf(t, spec.Domain, wantScores(t, spec)) {
		t.Fatalf("the finished job's CSV is not job.Run's (%v, %v)", ok, err)
	}
}

// TestPriorityRecordDirectory: a job file an older coordinator wrote with
// a job priority among its value lines — the line a priority-3 re-post
// journalled — loads. The line is counted with the retired records and
// skipped, the values beside it restore, and honest workers finish the
// job byte-identical to job.Run.
func TestPriorityRecordDirectory(t *testing.T) {
	dir, spec := t.TempDir(), gossipSpec(t)
	ctx, vals := context.Background(), truthVals(t, spec)
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	lease := leaseUpTo(t, coord, id, "w", 4)
	if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: "w", Results: results(lease, vals)}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id, "manifest-grid.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.IndexByte(data, '\n') + 1
	data = slices.Concat(data[:first], []byte(`{"crc":3779048582,"rec":{"t":"priority","weight":3}}`+"\n"), data[first:])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs logSink
	coord = NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, Logger: logs.logger()})
	defer coord.Close()
	if _, err := coord.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	var skipped []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "scheduler records of an older coordinator") {
			skipped = append(skipped, line)
		}
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "records=1") {
		t.Fatalf("the priority line was logged as %q, want one line counting it:\n%s", skipped, logs.String())
	}
	if snap := mustProgress(t, coord, id); snap.Done != len(lease) {
		t.Fatalf("restored %+v, want the file's %d values", snap, len(lease))
	}
	for round := 0; !mustProgress(t, coord, id).Complete; round++ {
		if round == 100 {
			t.Fatalf("the job did not complete: %+v", mustProgress(t, coord, id))
		}
		lease, err := coord.Lease(ctx, id, "v", 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: "v", Results: results(lease.Tasks, vals)}); err != nil {
			t.Fatal(err)
		}
	}
	scores, ok, err := coord.Scores(id)
	if err != nil || !ok || csvOf(t, spec.Domain, scores) != csvOf(t, spec.Domain, wantScores(t, spec)) {
		t.Fatalf("the finished job's CSV is not job.Run's (%v, %v)", ok, err)
	}
}
