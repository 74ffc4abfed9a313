package grid

// The Byzantine-tolerance contract: with -audit-rate on, a completed
// task's recorded value is silently re-computed by a different worker
// and byte-compared; agreement verifies, disagreement arbitrates by
// value-voting, and a worker caught lying is quarantined — 429'd
// everywhere, its unaudited work invalidated and re-queued. Hedged
// leases race stragglers without double-counting anyone's fair share.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/job"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	return strings.NewReader(mustJSON(t, v))
}

// honestVals is the stand-in for a correct computation: a value vector
// that is a pure function of the task coordinates, like the real
// domains guarantee.
func honestVals(lt LeaseTask) []float64 {
	out := make([]float64, lt.Hi-lt.Lo)
	for i := range out {
		out[i] = float64(lt.Lo + i)
	}
	return out
}

func lyingVals(lt LeaseTask) []float64 {
	out := honestVals(lt)
	out[0]++
	return out
}

func auditSpec(t *testing.T, points int) job.Spec {
	t.Helper()
	all := gossip.Domain().Space().Enumerate()
	return job.Spec{Domain: gossip.Domain(), Points: all[:points], Cfg: tinyGossipCfg(), Chunk: 2}
}

func mustLease(t testing.TB, c *Coordinator, id, worker string, wantTasks int) LeaseResponse {
	t.Helper()
	resp, err := c.Lease(context.Background(), id, worker, 10)
	if err != nil {
		t.Fatalf("lease %s: %v", worker, err)
	}
	if len(resp.Tasks) != wantTasks {
		t.Fatalf("lease %s: got %d tasks, want %d", worker, len(resp.Tasks), wantTasks)
	}
	return resp
}

func mustIngest(t *testing.T, c *Coordinator, id, worker string, lt LeaseTask, vals []float64) ResultAck {
	t.Helper()
	ack, err := c.Ingest(context.Background(), id, ResultUpload{Worker: worker, Task: lt.Task, Values: vals})
	if err != nil {
		t.Fatalf("ingest %s %s: %v", worker, lt.Task, err)
	}
	if !ack.Accepted {
		t.Fatalf("ingest %s %s: not accepted", worker, lt.Task)
	}
	return ack
}

func mustProgress(t testing.TB, c *Coordinator, id string) ProgressSnapshot {
	t.Helper()
	snap, err := c.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestAuditVerifiesAndGatesCompletion: with AuditRate 1 every done
// task opens an audit that gates completion; the producer is not
// eligible to audit itself (until constraints relax), and a matching
// second opinion verifies.
func TestAuditVerifiesAndGatesCompletion(t *testing.T) {
	spec := auditSpec(t, 2) // 2 points x 2 measures / chunk 2 = 2 tasks
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, AuditRate: 1})
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}

	lease := mustLease(t, coord, id, "w1", 2)
	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "w1", lt, honestVals(lt))
	}
	snap := mustProgress(t, coord, id)
	if snap.Done != 2 || snap.Audits != 2 || snap.Complete {
		t.Fatalf("after producer ingest: %+v, want 2 done + 2 open audits gating completion", snap)
	}

	// The producer may not audit its own fresh work.
	mustLease(t, coord, id, "w1", 0)

	// A different worker gets the re-checks as ordinary-looking leases
	// and its agreement verifies them.
	release := mustLease(t, coord, id, "w2", 2)
	for _, lt := range release.Tasks {
		ack := mustIngest(t, coord, id, "w2", lt, honestVals(lt))
		if !ack.Duplicate {
			t.Fatalf("audit agreement for %s should ack as duplicate, got %+v", lt.Task, ack)
		}
	}
	snap = mustProgress(t, coord, id)
	if snap.Audits != 0 || !snap.Complete {
		t.Fatalf("after audits verified: %+v, want complete with no open audits", snap)
	}
	if len(coord.Quarantined()) != 0 {
		t.Fatalf("honest grid quarantined someone: %v", coord.Quarantined())
	}
}

// TestAuditSoleWorkerRelaxes: one worker alone must not wedge the job
// — after a lease TTL the self-audit exclusion relaxes.
func TestAuditSoleWorkerRelaxes(t *testing.T) {
	spec := auditSpec(t, 2) // 2 tasks
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, AuditRate: 1})
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}

	lease := mustLease(t, coord, id, "solo", 2)
	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "solo", lt, honestVals(lt))
	}
	mustLease(t, coord, id, "solo", 0) // excluded while fresh

	now = now.Add(time.Minute + time.Second)
	again := mustLease(t, coord, id, "solo", 2)
	for _, lt := range again.Tasks {
		mustIngest(t, coord, id, "solo", lt, honestVals(lt))
	}
	if snap := mustProgress(t, coord, id); !snap.Complete {
		t.Fatalf("sole worker should self-verify after relax: %+v", snap)
	}
}

// TestByzantineLiarQuarantined walks the full value-voting arbitration:
// a liar's record is disputed by one honest worker, confirmed wrong by
// a second, the liar is quarantined, its other unaudited task is
// invalidated and re-queued, and honest workers re-verify everything.
func TestByzantineLiarQuarantined(t *testing.T) {
	spec := auditSpec(t, 2) // 2 points x 2 measures / chunk 2 = 2 tasks
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, AuditRate: 1})
	defer coord.Close()
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The liar computes both tasks — wrongly.
	lease := mustLease(t, coord, id, "liar", 2)
	t1, t2 := lease.Tasks[0], lease.Tasks[1]
	mustIngest(t, coord, id, "liar", t1, lyingVals(t1))
	mustIngest(t, coord, id, "liar", t2, lyingVals(t2))
	if snap := mustProgress(t, coord, id); snap.Audits != 2 {
		t.Fatalf("both tasks should be under audit: %+v", snap)
	}

	// First honest worker re-computes both: two disputes open.
	aud := mustLease(t, coord, id, "good1", 2)
	for _, lt := range aud.Tasks {
		mustIngest(t, coord, id, "good1", lt, honestVals(lt))
	}

	// Second honest worker arbitrates task 1 and confirms good1's
	// value: the liar is quarantined on the spot, and its OTHER
	// unaudited task is invalidated and re-queued.
	arb := mustLease(t, coord, id, "good2", 2)
	ack := mustIngest(t, coord, id, "good2", arb.Tasks[0], honestVals(arb.Tasks[0]))
	if ack.Duplicate {
		t.Fatalf("confirming arbitration upload should be a fresh accept, got %+v", ack)
	}
	if q := coord.Quarantined(); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("quarantined = %v, want exactly [liar]", q)
	}
	snap := mustProgress(t, coord, id)
	if snap.Done != 1 || snap.Pending != 1 || snap.Complete {
		t.Fatalf("after quarantine: %+v, want the liar's unaudited task re-queued", snap)
	}

	// The corrected record carries the honest value and producer.
	coord.mu.Lock()
	j := coord.jobs[id]
	if st := j.task(t1.Task); !equalValues(st.values, honestVals(t1)) || st.producer != "good1" {
		t.Errorf("task %s record = %v by %q, want good1's honest value", t1.Task, st.values, st.producer)
	}
	coord.mu.Unlock()

	// The quarantined liar is refused everywhere.
	if _, err := coord.Lease(context.Background(), id, "liar", 1); !errors.Is(err, errQuarantined) {
		t.Fatalf("liar lease: err = %v, want quarantine rejection", err)
	}
	if _, err := coord.Ingest(context.Background(), id, ResultUpload{Worker: "liar", Task: t2.Task, Values: honestVals(t2)}); !errors.Is(err, errQuarantined) {
		t.Fatalf("liar ingest: err = %v, want quarantine rejection", err)
	}
	if _, err := coord.Heartbeat(context.Background(), id, HeartbeatRequest{Worker: "liar", Tasks: []string{t2.Task}}); !errors.Is(err, errQuarantined) {
		t.Fatalf("liar heartbeat: err = %v, want quarantine rejection", err)
	}

	// good2 re-computes the re-queued task; good1 verifies it. No
	// unaudited result survives.
	re := mustLease(t, coord, id, "good2", 1)
	mustIngest(t, coord, id, "good2", re.Tasks[0], honestVals(re.Tasks[0]))
	ver := mustLease(t, coord, id, "good1", 1)
	mustIngest(t, coord, id, "good1", ver.Tasks[0], honestVals(ver.Tasks[0]))

	snap = mustProgress(t, coord, id)
	if !snap.Complete || snap.Audits != 0 {
		t.Fatalf("final state: %+v, want complete with audits settled", snap)
	}
	coord.mu.Lock()
	for _, st := range j.tasks {
		if !st.verified {
			t.Errorf("task %s completed unverified", st.id)
		}
		if by := st.producer; by == "liar" {
			t.Errorf("task %s still attributed to the quarantined liar", st.id)
		}
	}
	coord.mu.Unlock()

	// The checkpoint agrees: behind the overruled and the invalidated
	// lie sit tombstones, so a restart restores the honest values.
	cp, err := job.OpenCheckpoint(filepath.Join(dir, id), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	for _, lt := range []LeaseTask{t1, t2} {
		if got := cp.Completed()[lt.Task]; !equalValues(got, honestVals(lt)) {
			t.Errorf("checkpoint restores task %s as %v, want the honest %v", lt.Task, got, honestVals(lt))
		}
	}
}

// TestQuarantineOverHTTP pins the wire shape of a quarantine verdict:
// HTTP 429 with Retry-After and the X-Grid-Quarantined marker, which
// the client surfaces as ErrWorkerQuarantined without retrying.
func TestQuarantineOverHTTP(t *testing.T) {
	spec := auditSpec(t, 2)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute})
	defer coord.Close()
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	coord.Quarantine("bad")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs/"+id+"/lease", "application/json",
		jsonBody(t, LeaseRequest{Worker: "bad", MaxTasks: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quarantined lease status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" || resp.Header.Get(HeaderQuarantined) != "1" {
		t.Fatalf("quarantine response headers = %v, want Retry-After and %s", resp.Header, HeaderQuarantined)
	}

	err = Work(context.Background(), srv.URL, id, WorkerOptions{
		Name: "bad", Workers: 1, Reconnect: time.Minute, // reconnect must NOT mask a verdict
	})
	if !errors.Is(err, ErrWorkerQuarantined) {
		t.Fatalf("quarantined Work: err = %v, want ErrWorkerQuarantined", err)
	}
}

// TestHedgedLease: a straggling lease gets one speculative duplicate,
// the first upload wins, the loser is absorbed as a duplicate — and
// hedges never count toward the job's fair-share deficit.
func TestHedgedLease(t *testing.T) {
	spec := auditSpec(t, 2) // 2 tasks
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Hedge: true})
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}

	lease := mustLease(t, coord, id, "slow", 2)
	mustLease(t, coord, id, "fast", 0) // too fresh to hedge

	now = now.Add(31 * time.Second) // past the leaseTTL/2 straggler bar
	hedge := mustLease(t, coord, id, "fast", 2)
	if hedge.Tasks[0].Task != lease.Tasks[0].Task || hedge.Tasks[1].Task != lease.Tasks[1].Task {
		t.Fatalf("hedged %v, want the straggling %v", hedge.Tasks, lease.Tasks)
	}
	coord.mu.Lock()
	j := coord.jobs[id]
	for _, lt := range lease.Tasks {
		if st := j.task(lt.Task); st.hedgeWorker != "fast" || st.worker != "slow" {
			t.Fatalf("hedge state for %s = %q racing %q, want fast racing slow", lt.Task, st.hedgeWorker, st.worker)
		}
	}
	if j.leasesGranted != 2 {
		t.Fatalf("leasesGranted = %d after hedging, want 2 — hedges must not count toward the deficit", j.leasesGranted)
	}
	coord.mu.Unlock()

	// The racer wins both; the primary's late uploads are duplicates.
	for _, lt := range lease.Tasks {
		if ack := mustIngest(t, coord, id, "fast", lt, honestVals(lt)); ack.Duplicate {
			t.Fatalf("winning hedge upload acked as duplicate: %+v", ack)
		}
	}
	for _, lt := range lease.Tasks {
		if ack := mustIngest(t, coord, id, "slow", lt, honestVals(lt)); !ack.Duplicate {
			t.Fatalf("losing primary upload should be a duplicate: %+v", ack)
		}
	}
	if snap := mustProgress(t, coord, id); !snap.Complete {
		t.Fatalf("job incomplete after hedge won: %+v", snap)
	}
}

// TestHedgePromotion: when the straggling primary's lease expires with
// a live hedge outstanding, the racer inherits the task instead of it
// going back in the queue.
func TestHedgePromotion(t *testing.T) {
	spec := auditSpec(t, 2)
	coord := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, Hedge: true})
	now := time.Unix(1000, 0)
	coord.now = func() time.Time { return now }
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}

	lease := mustLease(t, coord, id, "slow", 2)
	now = now.Add(31 * time.Second)
	mustLease(t, coord, id, "fast", 2) // the hedges

	now = now.Add(35 * time.Second) // primaries expired (t+66s), hedges live until t+91s
	snap := mustProgress(t, coord, id)
	if snap.Requeues != 2 || snap.Leased != 2 || snap.Pending != 0 {
		t.Fatalf("after primary expiry: %+v, want both hedges promoted in place", snap)
	}
	coord.mu.Lock()
	for _, lt := range lease.Tasks {
		if st := coord.jobs[id].task(lt.Task); st.worker != "fast" || st.hedgeWorker != "" {
			t.Fatalf("promotion of %s: owner %q hedge %q, want fast owning with no hedge", lt.Task, st.worker, st.hedgeWorker)
		}
	}
	coord.mu.Unlock()

	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "fast", lt, honestVals(lt))
	}
	if snap := mustProgress(t, coord, id); !snap.Complete {
		t.Fatalf("job incomplete after promoted hedges finished: %+v", snap)
	}
}

// auditedPair is a coordinator with full auditing and one two-task job.
func auditedPair(t *testing.T) (coord *Coordinator, id string) {
	t.Helper()
	coord = NewCoordinator(CoordinatorOptions{LeaseTTL: time.Minute, AuditRate: 1})
	id, err := coord.AddJob(auditSpec(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	return coord, id
}

// TestProducerResendDoesNotVerify: a worker whose ack was lost re-sends
// its result while the audit of it is open. The re-send is a plain
// duplicate — one worker's word twice is still one worker's word — and
// the audit waits for a second worker.
func TestProducerResendDoesNotVerify(t *testing.T) {
	coord, id := auditedPair(t)
	lease := mustLease(t, coord, id, "w1", 2)
	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "w1", lt, honestVals(lt))
		if ack := mustIngest(t, coord, id, "w1", lt, honestVals(lt)); !ack.Duplicate {
			t.Fatalf("the producer's re-send of %s = %+v, want a duplicate", lt.Task, ack)
		}
	}
	if snap := mustProgress(t, coord, id); snap.Audits != 2 || snap.Complete {
		t.Fatalf("after the producer re-sent both results: %+v, want both audits still open", snap)
	}
	for _, lt := range mustLease(t, coord, id, "w2", 2).Tasks {
		mustIngest(t, coord, id, "w2", lt, honestVals(lt))
	}
	if snap := mustProgress(t, coord, id); !snap.Complete {
		t.Fatalf("after a second worker agreed: %+v, want complete", snap)
	}
}

// TestLiarCannotVerifyBySendingTwice: the same re-send from a liar must
// not settle the audit of its lie; two honest workers then overrule it.
func TestLiarCannotVerifyBySendingTwice(t *testing.T) {
	coord, id := auditedPair(t)
	lease := mustLease(t, coord, id, "liar", 2)
	for _, lt := range lease.Tasks {
		mustIngest(t, coord, id, "liar", lt, lyingVals(lt))
		mustIngest(t, coord, id, "liar", lt, lyingVals(lt))
	}
	coord.mu.Lock()
	for _, st := range coord.jobs[id].tasks {
		if st.verified || st.audit == nil {
			t.Errorf("task %s: verified=%v audit open=%v after the liar sent its value twice", st.id, st.verified, st.audit != nil)
		}
	}
	coord.mu.Unlock()
	for _, w := range []string{"good1", "good2"} {
		for _, lt := range mustLease(t, coord, id, w, 2).Tasks {
			if _, err := coord.Ingest(context.Background(), id, ResultUpload{Worker: w, Task: lt.Task, Values: honestVals(lt)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if q := coord.Quarantined(); len(q) != 1 || q[0] != "liar" {
		t.Fatalf("quarantined = %v, want exactly [liar]", q)
	}
}
