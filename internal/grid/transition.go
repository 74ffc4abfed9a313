package grid

import (
	"time"

	"repro/internal/job"
)

// The scheduler's state changes, one function per line of a job's file:
// a value line is the ingest and a tombstone the invalidation
// (applyResult), a scheduler record its own change (apply). Each does to
// memory what its line says — task, job counters and worker score row
// together. The live paths decide, journal the lines and settle them in
// that order; a restart passes each job's file through the same functions
// when it registers the job. Nothing here reads a clock, touches a file,
// a metric or a log, so what a line does cannot depend on which of the
// two runs it. The functions assert state, not the mutex: replay runs
// them before the job is published.
//
// A lease has no line. Its grant or move (grantLease) and its end
// (endLease) change memory alone, so leasesGranted, requeues and the
// failure EWMA count what this process saw, and a restart starts every
// unfinished task pending.

// apply performs scheduler record r's in-memory change on j. A quarantine
// names no job: it bans its worker, and what the ban does to a job is
// that job's own lines (voidLocked). Any other record needs its job.
func (c *Coordinator) apply(j *gridJob, r walRecord, now time.Time) {
	switch {
	case r.T == walQuarantine:
		c.quarantined[r.Worker] = true
	case j == nil:
	case r.T == walVerify:
		if st := j.task(r.Task); st != nil {
			c.applyVerify(j, st, r.Worker, time.Duration(r.ElapsedMS)*time.Millisecond, now)
		}
	}
}

// applyResult performs a value line's or a tombstone's change on st, the
// task of j it names, by the rule every restore folds a manifest with: a
// task's first value line since its last tombstone is its value, and a
// tombstone cancels it.
func (c *Coordinator) applyResult(j *gridJob, st *taskState, r job.Result, now time.Time) {
	switch {
	case r.Dead:
		if st.status == taskDone {
			j.invalidate(st)
		}
	case st.status != taskDone:
		c.applyIngest(j, st, r, now)
	}
}

// grantLease hands st to worker for one TTL: a pending task to compute,
// a done task's open audit to re-check, or a straggling lease, moved. The
// straggler a move leaves is not charged — it may still upload first —
// and the move is new, so it straggles again only a whole threshold on.
func (c *Coordinator) grantLease(j *gridJob, st *taskState, worker string, now time.Time) {
	c.touchWorker(worker, now)
	if st.status == taskPending {
		st.status = taskLeased
		j.pending--
	}
	st.worker, st.deadline, st.leasedAt = worker, now.Add(c.opts.leaseTTL()), now
}

// endLease ends st's lease without a result, one requeue and one failure
// of its holder: a leased task goes back in the queue, a done task's audit
// re-check returns to the pool. It does not stamp the holder live — the
// whole point is that it went silent, or was banned.
func (c *Coordinator) endLease(j *gridJob, st *taskState, now time.Time) {
	j.requeues++
	c.workerFailed(st.worker)
	if st.status == taskLeased {
		j.requeue(st)
	} else {
		st.worker = ""
		st.audit.relaxAt = now.Add(c.opts.leaseTTL())
	}
}

// applyIngest puts r's value on st's record, produced by r.Worker ("" for
// a cache-served or adopted value, or one an older coordinator wrote):
// whatever lease stood ends (a straggler whose lease moved and the worker
// it moved to are not scored: one of them simply lost the race), and the
// task's audit, if it is selected for one, opens — whoever produced the
// value, so that a restart opens exactly what the live process opened.
func (c *Coordinator) applyIngest(j *gridJob, st *taskState, r job.Result, now time.Time) {
	c.workerDone(r.Worker, r.Elapsed, now)
	if st.status == taskPending {
		j.pending--
	}
	st.status = taskDone
	j.done++
	st.values, st.worker, st.producer, st.verified, st.tainted = r.Values, "", r.Worker, false, false
	j.setAudit(st, nil)
	if c.auditEnabled() && auditSelected(j.id, st.task, c.opts.AuditRate) {
		j.setAudit(st, &auditState{original: r.Worker, relaxAt: now.Add(c.opts.leaseTTL())})
	}
}

// applyVerify settles st's audit: worker reproduced the recorded value.
func (c *Coordinator) applyVerify(j *gridJob, st *taskState, worker string, elapsed time.Duration, now time.Time) {
	c.workerDone(worker, elapsed, now)
	if st.status == taskDone {
		st.verified = true
		j.setAudit(st, nil)
	}
}

// unauditedBy reports whether st holds a value worker produced that no
// second worker has confirmed: what its quarantine invalidates.
func (st *taskState) unauditedBy(worker string) bool {
	return st.status == taskDone && st.producer == worker && !st.verified
}

// requeue returns a task to the pending queue, ahead of the grant cursor
// if need be.
func (j *gridJob) requeue(st *taskState) {
	if st.status != taskPending {
		j.pending++
	}
	st.status = taskPending
	st.worker = ""
	j.next = min(j.next, st.idx)
}

// invalidate drops a done task's recorded value and re-queues it. The
// task is tainted: the cache may still hold the dropped per-point scores,
// so the absorb scan must not serve them back until an honest re-run
// overwrites them.
func (j *gridJob) invalidate(st *taskState) {
	j.requeue(st)
	j.done--
	st.values, st.producer, st.verified, st.tainted = nil, "", false, true
	j.setAudit(st, nil)
	j.scores, j.scoresErr = nil, nil
}

// setAudit opens (ast non-nil) or closes st's audit, keeping the job's
// count of open audits — its completion gate — in step. A done task's
// lease is its audit's re-check, so it ends with it.
func (j *gridJob) setAudit(st *taskState, ast *auditState) {
	if st.audit != nil {
		j.audits--
	}
	if ast != nil {
		j.audits++
	}
	st.audit, st.worker = ast, ""
}

// task looks a task up by name; nil if the job has none such.
func (j *gridJob) task(name string) *taskState {
	if i, ok := j.x.Parse(name); ok {
		return j.tasks[i]
	}
	return nil
}

// revocations is every lease held by a worker revoked names, in grant
// order — but a lease whose result is being journalled, which settles as
// the ingest it is.
func (j *gridJob) revocations(revoked func(worker string) bool) []*taskState {
	var sts []*taskState
	for _, st := range j.tasks {
		if st.worker != "" && !st.recording && revoked(st.worker) {
			sts = append(sts, st)
		}
	}
	return sts
}
