package grid

import (
	"hash/fnv"
	"math"
	"time"

	"repro/internal/job"
)

// Result audit + quarantine: the BAR-tolerance layer. The determinism
// contract (Domain.ScoreSlice is a pure function of the point
// identity) makes verification cheap — re-running a task on a second
// worker must reproduce the recorded values bit for bit. The
// coordinator silently re-leases a deterministic AuditRate fraction of
// completed tasks to a *different* worker (the wire shape is an
// ordinary lease; a rational or Byzantine worker cannot tell an audit
// from real work) and byte-compares the scores.
//
// Arbitration is value-voting: the recorded result holds one implicit
// vote (its producer); the first value claimed by two distinct workers
// wins. A match verifies the task. A mismatch escalates to a third
// worker; whichever of the two claims it confirms wins, and the
// loser's producer is quarantined — leases and uploads answered 429,
// every done-but-unaudited task it produced invalidated on disk and
// re-queued. Three distinct values mean the determinism contract
// itself is broken: the task is invalidated and re-run, loudly, with
// no quarantine (the fault is ours, not a worker's).
//
// Guaranteed liar detection needs >= 3 workers (2 honest); with fewer,
// eligibility constraints relax after a lease TTL so audits cannot
// wedge a small grid — at the documented cost that a sole surviving
// worker can confirm its own results.

// auditState is one done task's open audit, on its task record. Open
// audits gate job completion: a job is complete only when every task is
// done AND every audit is settled. Where it stands is read off two
// fields: the task's lease held means a re-check is computing, second set
// means the values split and the re-check is a tiebreak. That an audit is
// open follows from the journal (ingest opens, verify and invalidation
// close); how far it got does not: a restart re-opens it as a plain
// re-check anyone eligible may take.
type auditState struct {
	original   string    // producer of the recorded value ("" if unknown)
	relaxAt    time.Time // when worker-exclusion constraints loosen
	giveUpAt   time.Time // arbitration only: when an unresolvable split re-queues instead
	second     string    // the mismatching second worker (arbitration)
	secondVals []float64
	secondMS   int64 // what the second worker said its run took; scored if it is upheld
}

// auditSelected is the deterministic sampling decision: a pure
// function of (job, task, rate), so a restarted coordinator re-selects
// exactly the tasks whose audits were in flight at the crash, and a
// worker cannot influence whether its work gets checked.
func auditSelected(jobID string, t job.Task, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{'/'})
	h.Write([]byte(t.ID()))
	return float64(h.Sum64()>>11)/float64(1<<53) < rate
}

func (c *Coordinator) auditEnabled() bool { return c.opts.AuditRate > 0 }

// auditGrantable reports whether worker may hold the re-check of st's
// open audit now: take it unheld, or move it from a straggling holder.
func auditGrantable(st *taskState, worker string, now time.Time) bool {
	ast := st.audit
	if ast == nil {
		return false
	}
	if ast.second != "" {
		// The producer may never arbitrate its own dispute (a
		// deterministic liar would confirm itself); the second
		// claimant re-computing is equally useless.
		return worker != ast.original && worker != ast.second
	}
	// Prefer a different worker than the producer; relax so a sole
	// surviving worker cannot wedge the job.
	return worker != ast.original || !now.Before(ast.relaxAt)
}

// equalValues is the audit comparison: bit-exact, NaN-tolerant (a
// domain may legitimately score NaN, and two honest workers produce
// the same NaN payload via the same code path).
func equalValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// auditIngestLocked consumes an upload for an already-done task under
// the audit regime. Value-voting:
//
//	upload == recorded            → verified (two workers agree)
//	first mismatch                → escalate to arbitration
//	upload == second claim        → recorded was the lie: fix the
//	                                 record, quarantine its producer
//	third distinct value          → determinism broken: re-run, loudly
//
// A worker's run is scored when a journalled line says so: the verify of
// an agreeing upload, the value line that puts an upheld second claim on
// record. A dissent on its own scores nothing — it is a sign of life.
func (c *Coordinator) auditIngestLocked(j *gridJob, st *taskState, up ResultUpload) ResultAck {
	ast := st.audit
	vals := []float64(up.Values)
	now := c.now()
	dup := ResultAck{Accepted: true, Duplicate: true}
	verify := walRecord{T: walVerify, Task: st.task.ID(), Worker: up.Worker, ElapsedMS: up.ElapsedMS}

	// Uploads that carry no audit information: anything after verification
	// settled, and the producer re-sending its own value — a retry after a
	// lost response, or a liar repeating itself — unless it holds this
	// audit's lease, which only the relaxation hands it.
	if st.verified || up.Worker == st.producer && st.worker != up.Worker {
		c.metrics.duplicates.Inc()
		c.touchWorker(up.Worker, now)
		return dup
	}

	if equalValues(vals, st.values) {
		// Agreement with the record verifies it — whether this upload
		// was the assigned auditor, a race's loser, or a stray retry.
		c.commit(j, now, nil, []walRecord{verify}, "", "")
		c.feedCacheLocked(j, st.task, st.values)
		return dup
	}

	// Mismatch against the record.
	c.metrics.auditMismatches.Inc()
	c.touchWorker(up.Worker, now)
	if ast == nil || ast.second == "" {
		// First dissent: open (or escalate) to arbitration. The re-check
		// lease, whoever held it, is spent.
		if ast == nil {
			ast = &auditState{original: st.producer}
			j.setAudit(st, ast)
			c.metrics.auditsOpened.Inc()
		}
		st.worker = ""
		ast.second, ast.secondVals, ast.secondMS = up.Worker, vals, up.ElapsedMS
		ast.relaxAt = now.Add(c.opts.leaseTTL())
		ast.giveUpAt = now.Add(4 * c.opts.leaseTTL())
		c.log.Warn("AUDIT MISMATCH, arbitrating", "job", j.id, "task", st.task.ID(),
			"worker", up.Worker, "original", ast.original)
		c.wakeLocked(j)
		return dup
	}

	if up.Worker == ast.second {
		// The dissenter repeating itself adds no information.
		c.metrics.duplicates.Inc()
		return dup
	}

	if equalValues(vals, ast.secondVals) {
		// Two workers agree on a value that contradicts the record: the
		// recorded producer lied. One durable append fixes the record — a
		// tombstone for the lie, the corrected value line naming the
		// upheld second claimant, this upload's verify — then the liar is
		// quarantined.
		liar := ast.original
		c.commit(j, now, []job.Result{{Task: st.task, Dead: true},
			{Task: st.task, Values: vals, Elapsed: time.Duration(ast.secondMS) * time.Millisecond, Worker: ast.second}},
			[]walRecord{verify}, "", "")
		c.feedCacheLocked(j, st.task, st.values)
		c.quarantineLocked(liar, "audit of task "+st.task.ID()+" overruled its value")
		return ResultAck{Accepted: true}
	}

	// Three distinct values for one deterministic task: the
	// determinism contract is broken (or two liars collide). Re-run.
	c.log.Error("THREE distinct claimed values, determinism violation, re-queueing", "job", j.id, "task", st.task.ID(),
		"worker", up.Worker, "original", ast.original, "second", ast.second)
	c.invalidateTaskLocked(j, st)
	c.wakeLocked(j)
	return dup
}

// invalidateTaskLocked drops a done task's recorded value and
// re-queues it, by a durable tombstone.
func (c *Coordinator) invalidateTaskLocked(j *gridJob, st *taskState) {
	c.commit(j, c.now(), []job.Result{{Task: st.task, Dead: true}}, nil, "", "")
	c.metrics.invalidated.Inc()
}

// quarantineLocked bans a worker and expunges its unaudited work: the
// verdict is appended to the quarantine journal and fsynced first, then
// voidLocked applies it to every job, in ID order (a crash in between is
// finished when the restart registers each job).
func (c *Coordinator) quarantineLocked(name, reason string) {
	if name == "" || c.quarantined[name] {
		return
	}
	now, jobs := c.now(), c.jobsLocked()
	revoked := 0
	for _, j := range jobs {
		revoked += len(j.revocations(func(w string) bool { return w == name }))
	}
	c.commit(nil, now, nil, []walRecord{{T: walQuarantine, Worker: name}}, "",
		"worker QUARANTINED", "worker", name, "reason", reason, "revoked", revoked)
	for _, j := range jobs {
		c.voidLocked(j, name, now)
	}
}

// voidLocked applies name's quarantine to j: a dispute it raised
// dissolves (the audit goes back to a plain re-check), every
// done-but-unverified task it produced is tombstoned and re-queued —
// verified tasks survive, a second worker vouched for them — in one
// commit, in task order, and every lease it still holds ends, the expiry
// it is. The live verdict runs it on each job, and a registration on the
// job it restores for every standing quarantine.
func (c *Coordinator) voidLocked(j *gridJob, name string, now time.Time) {
	var dead []job.Result
	for _, st := range j.tasks {
		if ast := st.audit; ast != nil && ast.second == name {
			ast.second, ast.secondVals, ast.secondMS, ast.giveUpAt = "", nil, 0, time.Time{}
		}
		if st.unauditedBy(name) {
			dead = append(dead, job.Result{Task: st.task, Dead: true})
		}
	}
	if n := len(dead); n > 0 {
		c.commit(j, now, dead, nil, "", "")
		c.metrics.invalidated.Add(float64(n))
		c.log.Info("unaudited tasks invalidated and re-queued", "job", j.id, "worker", name, "tasks", n)
	}
	c.endLeasesLocked(j, j.revocations(func(w string) bool { return w == name }), now, "leases revoked")
}
