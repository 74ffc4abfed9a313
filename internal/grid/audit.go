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

type auditPhase int

const (
	auditPending auditPhase = iota // waiting for a second opinion
	auditLeased                    // second opinion computing
	arbPending                     // values split; waiting for a tiebreaker
	arbLeased                      // tiebreaker computing
)

// auditState tracks one task's open audit. Entries live in
// gridJob.audits, keyed by task ID, and gate job completion: a job is
// complete only when every task is done AND every audit is settled.
type auditState struct {
	task       job.Task
	original   string // producer of the recorded value ("" if unknown)
	phase      auditPhase
	auditor    string    // worker currently re-computing (audit or arb lease)
	deadline   time.Time // auditor's lease deadline
	relaxAt    time.Time // when worker-exclusion constraints loosen
	giveUpAt   time.Time // arb only: when an unresolvable split re-queues instead
	second     string    // the mismatching second worker (arb phases)
	secondVals []float64
}

// auditSelected is the deterministic sampling decision: a pure
// function of (job, task, rate), so a restarted coordinator re-selects
// exactly the tasks whose audits were in flight at the crash, and a
// worker cannot influence whether its work gets checked.
func auditSelected(jobID, taskID string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{'/'})
	h.Write([]byte(taskID))
	return float64(h.Sum64()>>11)/float64(1<<53) < rate
}

func (c *Coordinator) auditEnabled() bool { return c.opts.AuditRate > 0 }

// openAuditLocked opens (idempotently) the audit entry for a completed
// task whose recorded value came from original.
func (c *Coordinator) openAuditLocked(j *gridJob, t job.Task, original string) {
	tid := t.ID()
	if _, ok := j.audits[tid]; ok || j.verified[tid] {
		return
	}
	j.audits[tid] = &auditState{
		task: t, original: original,
		relaxAt: c.now().Add(c.opts.leaseTTL()),
	}
	c.metrics.auditsOpened.Inc()
}

// auditRenewLocked extends an audit/arbitration lease held by worker,
// so heartbeats keep re-checks alive exactly like ordinary leases.
func (c *Coordinator) auditRenewLocked(j *gridJob, tid, worker string, deadline time.Time) bool {
	ast, ok := j.audits[tid]
	if !ok || worker == "" || ast.auditor != worker {
		return false
	}
	if ast.phase != auditLeased && ast.phase != arbLeased {
		return false
	}
	ast.deadline = deadline
	return true
}

// auditExpireLocked lazily expires audit leases whose holder went
// silent (back to pending, scored against the holder) and re-queues
// arbitrations that ran out of road (no third worker ever arrived).
// Runs from expireLocked, so every API call that looks at task state
// keeps audits live too.
func (c *Coordinator) auditExpireLocked(j *gridJob, now time.Time) {
	for tid, ast := range j.audits {
		if (ast.phase == auditLeased || ast.phase == arbLeased) && ast.deadline.Before(now) {
			c.workerFailedLocked(ast.auditor)
			ast.auditor = ""
			ast.relaxAt = now.Add(c.opts.leaseTTL())
			if ast.phase == auditLeased {
				ast.phase = auditPending
			} else {
				ast.phase = arbPending
			}
		}
		if ast.phase == arbPending && !ast.giveUpAt.IsZero() && ast.giveUpAt.Before(now) {
			// Unresolvable split (e.g. both claimants quarantine-proof
			// in a 2-worker grid): discard both claims and re-run.
			c.logf("grid: job %s: task %s audit split unresolved (%q vs %q), re-queueing",
				j.id, tid, ast.original, ast.second)
			c.invalidateTaskLocked(j, tid)
			delete(j.audits, tid)
		}
	}
}

// grantAuditsLocked fills up to room lease slots with audit re-leases
// worker is eligible for. Audits are granted before pending work: a
// handful of re-checks catching a liar early is worth more than the
// same slots of fresh work it would poison.
func (c *Coordinator) grantAuditsLocked(j *gridJob, worker string, room int, now time.Time, deadline time.Time) []LeaseTask {
	if worker == "" || room <= 0 || len(j.audits) == 0 {
		return nil
	}
	var out []LeaseTask
	for _, tid := range j.order {
		if len(out) == room {
			break
		}
		ast, ok := j.audits[tid]
		if !ok {
			continue
		}
		relaxed := !now.Before(ast.relaxAt)
		switch ast.phase {
		case auditPending:
			// Prefer a different worker than the producer; relax so a
			// sole surviving worker cannot wedge the job.
			if worker == ast.original && !relaxed {
				continue
			}
		case arbPending:
			// The producer may never arbitrate its own dispute (a
			// deterministic liar would confirm itself); the second
			// claimant re-computing is equally useless.
			if worker == ast.original || worker == ast.second {
				continue
			}
		default:
			continue
		}
		if ast.phase == auditPending {
			ast.phase = auditLeased
		} else {
			ast.phase = arbLeased
		}
		ast.auditor = worker
		ast.deadline = deadline
		t := ast.task
		out = append(out, LeaseTask{
			Task: tid, Measure: t.Measure, Lo: t.Lo, Hi: t.Hi,
			TTLMS: deadline.Sub(now).Milliseconds(),
		})
	}
	return out
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
// the audit regime and returns the ack plus work to run after the
// coordinator lock is released (checkpoint invalidations from a
// quarantine). Value-voting:
//
//	upload == recorded            → verified (two workers agree)
//	first mismatch                → escalate to arbitration
//	upload == second claim        → recorded was the lie: fix the
//	                                 record, quarantine its producer
//	third distinct value          → determinism broken: re-run, loudly
func (c *Coordinator) auditIngestLocked(j *gridJob, st *taskState, up ResultUpload) (ResultAck, func()) {
	tid := up.Task
	recorded := j.results[tid]
	ast := j.audits[tid]
	vals := []float64(up.Values)
	elapsed := time.Duration(up.ElapsedMS) * time.Millisecond

	// Uploads that carry no audit information: the producer re-sending
	// its own value, or anything after verification settled.
	if up.Worker == "" || j.verified[tid] || (up.Worker == j.doneBy[tid] && ast == nil) {
		c.metrics.duplicates.Inc()
		c.touchWorkerLocked(up.Worker)
		return ResultAck{Accepted: true, Duplicate: true}, nil
	}

	if equalValues(vals, recorded) {
		// Agreement with the record verifies it — whether this upload
		// was the assigned auditor, a hedge loser, or a stray retry.
		c.workerDoneLocked(up.Worker, elapsed)
		c.markVerifiedLocked(j, st.task, up.Worker)
		return ResultAck{Accepted: true, Duplicate: true}, nil
	}

	// Mismatch against the record.
	c.metrics.auditMismatches.Inc()
	now := c.now()
	if ast == nil || ast.second == "" {
		// First dissent: open (or escalate) to arbitration.
		c.workerDoneLocked(up.Worker, elapsed)
		if ast == nil {
			ast = &auditState{task: st.task, original: j.doneBy[tid]}
			j.audits[tid] = ast
			c.metrics.auditsOpened.Inc()
		}
		ast.phase = arbPending
		ast.auditor = ""
		ast.second = up.Worker
		ast.secondVals = vals
		ast.relaxAt = now.Add(c.opts.leaseTTL())
		ast.giveUpAt = now.Add(4 * c.opts.leaseTTL())
		c.logf("grid: job %s: task %s AUDIT MISMATCH: %q disagrees with recorded value from %q, arbitrating",
			j.id, tid, up.Worker, ast.original)
		c.broadcastLocked(j)
		return ResultAck{Accepted: true, Duplicate: true}, nil
	}

	if up.Worker == ast.second {
		// The dissenter repeating itself adds no information.
		c.metrics.duplicates.Inc()
		c.touchWorkerLocked(up.Worker)
		return ResultAck{Accepted: true, Duplicate: true}, nil
	}

	if equalValues(vals, ast.secondVals) {
		// Two workers agree on a value that contradicts the record:
		// the recorded producer lied. Fix the record — a tombstone for
		// the lie, then the corrected line, since a restore keeps a
		// task's first live entry (synchronously: quarantine verdicts
		// are rare enough to fsync under the lock), then quarantine.
		c.workerDoneLocked(up.Worker, elapsed)
		liar := ast.original
		j.results[tid] = vals
		j.doneBy[tid] = ast.second
		if j.cp != nil {
			err := j.cp.Invalidate(st.task)
			if err == nil {
				err = j.cp.Record(st.task, vals, elapsed)
			}
			if err != nil {
				c.logf("grid: job %s: task %s corrected value failed to journal: %v", j.id, tid, err)
			}
		}
		c.markVerifiedLocked(j, st.task, up.Worker)
		after := c.quarantineLocked(liar, "audit of task "+tid+" overruled its value")
		return ResultAck{Accepted: true}, after
	}

	// Three distinct values for one deterministic task: the
	// determinism contract is broken (or two liars collide). Re-run.
	c.workerDoneLocked(up.Worker, elapsed)
	c.logf("grid: job %s: task %s has THREE distinct claimed values (%q, %q, %q) — determinism violation, re-queueing",
		j.id, tid, ast.original, ast.second, up.Worker)
	c.invalidateTaskLocked(j, tid)
	delete(j.audits, tid)
	c.broadcastLocked(j)
	return ResultAck{Accepted: true, Duplicate: true}, nil
}

// markVerifiedLocked settles a task's audit as confirmed: the verify
// record hits the WAL (fsynced — a verdict must not be re-litigated
// after a power loss), the deferred cache feed happens, and completion
// is re-checked.
func (c *Coordinator) markVerifiedLocked(j *gridJob, t job.Task, by string) {
	tid := t.ID()
	if j.verified[tid] {
		return
	}
	j.verified[tid] = true
	delete(j.audits, tid)
	delete(j.tainted, tid)
	c.metrics.auditsPassed.Inc()
	c.walAppendLocked(true, walRecord{T: walVerify, Job: j.id, Task: tid, Worker: by})
	c.feedCacheLocked(j, t, j.results[tid])
	c.finishIfCompleteLocked(j)
	c.broadcastLocked(j)
}

// invalidateTaskLocked drops a done task's recorded value and
// re-queues it. The checkpoint tombstone is written first (one synced
// append — cheap enough for this rare path to run under the lock), so
// a crash in between re-runs the task instead of resurrecting the
// dropped value. Batch invalidations (quarantine) use the deferred
// path instead.
func (c *Coordinator) invalidateTaskLocked(j *gridJob, tid string) {
	st, ok := j.tasks[tid]
	if !ok || st.status != taskDone {
		return
	}
	if j.cp != nil {
		if err := j.cp.Invalidate(st.task); err != nil {
			c.logf("grid: job %s: task %s invalidation: %v", j.id, tid, err)
		}
	}
	j.requeueLocked(st)
	j.done--
	delete(j.results, tid)
	delete(j.doneBy, tid)
	delete(j.verified, tid)
	j.tainted[tid] = true
	j.scores, j.scoresErr = nil, nil
	c.metrics.invalidated.Inc()
}

// quarantineLocked bans a worker and expunges its unaudited work:
// leases revoked, every done-but-unverified task it produced is
// invalidated (checkpoint tombstones appended in the returned func,
// which the caller runs after releasing the lock) and re-queued.
// Verified tasks survive — a second worker vouched for them.
func (c *Coordinator) quarantineLocked(name, reason string) func() {
	if name == "" || c.quarantined[name] {
		return nil
	}
	c.quarantined[name] = true
	c.metrics.quarantines.Inc()
	c.walAppendLocked(true, walRecord{T: walQuarantine, Worker: name})
	c.logf("grid: worker %s QUARANTINED: %s", name, reason)

	type inval struct {
		j  *gridJob
		st *taskState
	}
	var invals []inval
	for _, j := range c.jobs {
		revoked := 0
		for _, st := range j.tasks {
			if st.status == taskLeased && st.worker == name {
				j.requeueLocked(st)
				j.requeues++
				revoked++
			}
			if st.hedgeWorker == name {
				st.hedgeWorker = ""
				st.hedgeDeadline = time.Time{}
			}
		}
		if revoked > 0 {
			c.metrics.requeues.Add(float64(revoked))
		}
		for _, ast := range j.audits {
			// Audits the liar was computing go back to the pool; a
			// dispute the liar raised dissolves (its claim is void).
			if ast.auditor == name {
				ast.auditor = ""
				if ast.phase == auditLeased {
					ast.phase = auditPending
				} else if ast.phase == arbLeased {
					ast.phase = arbPending
				}
			}
			if ast.second == name {
				ast.second = ""
				ast.secondVals = nil
				ast.giveUpAt = time.Time{}
				if ast.phase == arbPending || ast.phase == arbLeased {
					ast.phase = auditPending
					ast.auditor = ""
				}
			}
		}
		for tid, by := range j.doneBy {
			if by != name || j.verified[tid] {
				continue
			}
			st := j.tasks[tid]
			if st == nil || st.status != taskDone || st.recording {
				continue
			}
			// Claim the task like an in-flight ingest so nothing races
			// the unlocked tombstone append.
			st.recording = true
			delete(j.audits, tid)
			invals = append(invals, inval{j: j, st: st})
		}
		c.broadcastLocked(j)
	}

	if len(invals) == 0 {
		return func() {}
	}
	return func() {
		// Disk first: once the tombstones are durable, a crash anywhere
		// below re-runs the tasks instead of resurrecting the lies.
		for _, iv := range invals {
			if iv.j.cp != nil {
				if err := iv.j.cp.Invalidate(iv.st.task); err != nil {
					c.logf("grid: job %s: task %s invalidation: %v", iv.j.id, iv.st.task.ID(), err)
				}
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		byJob := map[*gridJob]int{}
		for _, iv := range invals {
			j, st := iv.j, iv.st
			tid := st.task.ID()
			st.recording = false
			if st.status != taskDone {
				continue
			}
			j.requeueLocked(st)
			j.done--
			delete(j.results, tid)
			delete(j.doneBy, tid)
			j.tainted[tid] = true
			j.scores, j.scoresErr = nil, nil
			byJob[j]++
		}
		for j, n := range byJob {
			c.metrics.invalidated.Add(float64(n))
			c.logf("grid: job %s: %d unaudited tasks from %s invalidated and re-queued", j.id, n, name)
			c.broadcastLocked(j)
		}
		c.checkDrainedLocked()
	}
}

// Quarantine bans a worker by operator decision: same mechanics as an
// audit verdict (429'd leases and uploads, unaudited work re-queued).
func (c *Coordinator) Quarantine(name string) {
	c.mu.Lock()
	after := c.quarantineLocked(name, "operator request")
	c.mu.Unlock()
	if after != nil {
		after()
	}
}

// Quarantined lists quarantined workers (for the dashboard and tests).
func (c *Coordinator) Quarantined() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.quarantined))
	for name := range c.quarantined {
		out = append(out, name)
	}
	return out
}
