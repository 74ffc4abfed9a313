package grid

import (
	"math"
	"sort"
	"time"
)

// This file is the coordinator's scheduling brain: fair-share lease
// scheduling across concurrent jobs, an equal share each, and
// one rule, leaseSizeLocked, for how much work a lease call hands out:
// a share of the pending work sized by the live fleet and bounded by the
// worker's own scores (EWMA of task latency and failure rate).
//
// Fairness model. Workers pull; the coordinator cannot push work to
// anyone. What it can choose is *which job* a pulling worker serves
// next. pickJobLocked grants from the eligible job with the fewest
// granted tasks, so over any window the jobs' granted task counts stay
// level — a deficit round robin in units of tasks, not lease calls,
// which keeps the shares fair even when grant sizes differ per worker.
//
// Worker scoring. debswarm ranks download peers by latency, throughput
// and reliability before routing requests at them; the grid applies
// the same ranking to its own fleet. Each worker accumulates an EWMA
// of per-task wall time (from result uploads) and an EWMA failure rate
// (lease expiries count against it, completed tasks count for it). A
// worker whose failure EWMA is high gets its lease batches cut down to
// as little as one task — a crash-looping or flaky machine keeps
// participating but can only strand one task per TTL — and a worker
// much slower than the fleet gets smaller batches so the tail of a job
// is not hostage to it. Healthy workers are untouched: the shaping steers
// allocation toward fast, reliable workers without starving anyone.

// Scoring constants.
const (
	// ewmaAlpha is the weight of the newest observation in both the
	// latency and failure EWMAs.
	ewmaAlpha = 0.3
	// slowFactor is how many times slower than the fleet-mean task
	// latency a worker must be before its grants are halved.
	slowFactor = 2.0
	// livenessTTLs is how many lease TTLs of silence make a worker
	// count as gone in the liveness gauge and the dashboard.
	livenessTTLs = 3
)

// workerStats is the coordinator's per-worker scorecard, updated by the
// lease, ingest, verify and expire transitions under the coordinator
// lock. What a worker holds right now is not kept here: the task table
// says (jobViewLocked).
type workerStats struct {
	name      string
	firstSeen time.Time
	lastSeen  time.Time
	done      uint64  // tasks successfully ingested
	failures  uint64  // leases lost to expiry
	latEWMA   float64 // seconds per task, EWMA over uploads
	failEWMA  float64 // 0..1, EWMA of expiry-vs-completion outcomes
}

// touchWorker returns (creating if needed) the stats row for a worker
// and stamps it live. Anonymous workers are not tracked.
func (c *Coordinator) touchWorker(name string, now time.Time) *workerStats {
	if name == "" {
		return nil
	}
	ws, ok := c.workers[name]
	if !ok {
		ws = &workerStats{name: name, firstSeen: now}
		c.workers[name] = ws
	}
	ws.lastSeen = now
	return ws
}

// workerDone scores one successful task: latency joins the EWMA, the
// failure EWMA decays toward zero.
func (c *Coordinator) workerDone(name string, elapsed time.Duration, now time.Time) {
	ws := c.touchWorker(name, now)
	if ws == nil {
		return
	}
	ws.done++
	ws.failEWMA *= 1 - ewmaAlpha
	if elapsed > 0 {
		obs := elapsed.Seconds()
		if ws.latEWMA == 0 {
			ws.latEWMA = obs
		} else {
			ws.latEWMA = float64((1-ewmaAlpha)*ws.latEWMA) + float64(ewmaAlpha*obs)
		}
	}
}

// workerFailed scores one lost lease against its holder. It does not
// stamp lastSeen — the whole point is that the worker went silent.
func (c *Coordinator) workerFailed(name string) {
	ws, ok := c.workers[name]
	if !ok {
		return
	}
	ws.failures++
	ws.failEWMA = float64((1-ewmaAlpha)*ws.failEWMA) + ewmaAlpha
}

// fleetLatencyLocked is the mean task-latency EWMA over the n workers
// that have completed anything — what "slow" is measured against.
func (c *Coordinator) fleetLatencyLocked() (mean float64, n int) {
	var sum float64
	for _, ws := range c.workers {
		if ws.done > 0 && ws.latEWMA > 0 {
			sum += ws.latEWMA
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// leaseSizeLocked is the one grant rule: how many tasks a lease of j to
// worker carries, live being the live workers (liveWorkersLocked). It is
// guided self-scheduling (Polychronopoulos & Kuck, 1987) bounded by the
// TTL:
//   - a worker with no ingested task gets one chunk group, a probe;
//   - any other gets its fair share of j's pending tasks,
//     ceil(pending / live), and at most what its latency EWMA says it
//     computes in a third of the TTL: a batch fits one heartbeat period
//     and stays under the hedge floor of TTL/2;
//   - that rounds down to whole chunk groups, never below one, which
//     its ExecTasks scores jointly when the domain shares runs between
//     measures;
//   - most, if > 0, caps it (the request's MaxTasks);
//   - a worker with a track record then has it cut by its failure EWMA
//     and halved if it is much slower than the fleet (worker scoring,
//     above).
//
// Size changes the schedule, never a value: a task is journalled and
// scored alike in a grant of one or of a thousand.
func (c *Coordinator) leaseSizeLocked(j *gridJob, worker string, most, live int) int {
	ws := c.workers[worker]
	size := j.group
	if ws != nil && ws.done > 0 {
		size = (j.pending + live - 1) / live
		if ws.latEWMA > 0 {
			size = min(size, int(c.opts.leaseTTL().Seconds()/3/ws.latEWMA))
		}
	}
	size = max(j.group, size/j.group*j.group)
	if most > 0 {
		size = min(size, most)
	}
	if ws == nil || ws.done+ws.failures == 0 {
		return size
	}
	size = max(1, int(math.Ceil(float64(size)*(1-ws.failEWMA))))
	// Latency shaping needs a fleet to compare against.
	if mean, n := c.fleetLatencyLocked(); n > 1 && ws.latEWMA > slowFactor*mean {
		size = (size + 1) / 2
	}
	return size
}

// workerLive is the liveness predicate: heard from within livenessTTLs
// lease TTLs of now.
func (c *Coordinator) workerLive(ws *workerStats, now time.Time) bool {
	return ws.lastSeen.After(now.Add(-livenessTTLs * c.opts.leaseTTL()))
}

// liveWorkersLocked counts the live, unquarantined workers, asker among
// them whatever its last sign of life: it is asking now.
func (c *Coordinator) liveWorkersLocked(asker string, now time.Time) int {
	live := 0
	for name, ws := range c.workers {
		if name != asker && !c.quarantined[name] && c.workerLive(ws, now) {
			live++
		}
	}
	return live + 1
}

// jobsLocked lists the jobs in ID order: the order every walk that can
// reach a journal or a log takes, so a schedule replays byte for byte.
func (c *Coordinator) jobsLocked() []*gridJob {
	jobs := make([]*gridJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	return jobs
}

// pickJobLocked chooses which job a pulling worker serves next: among
// eligible jobs (pending tasks after lazy expiry, open audits, or a
// straggling lease worker could take over), the one with the fewest
// leasesGranted; ties break by job ID so the schedule is deterministic.
// Returns nil when nothing is eligible.
func (c *Coordinator) pickJobLocked(worker string) *gridJob {
	var best *gridJob
	now := c.now()
	for _, j := range c.jobsLocked() {
		c.expireLocked(j)
		if !j.hasPendingLocked() && j.audits == 0 && len(c.stragglersLocked(j, worker, 1, now)) == 0 {
			continue
		}
		if best == nil || j.leasesGranted < best.leasesGranted {
			best = j
		}
	}
	return best
}

// --- Hedged leases ---

// hedgeThresholdLocked is the straggler bar: a lease older than
// slowFactor x the fleet-mean task-latency EWMA is worth racing,
// floored at half the lease TTL so a fleet of fast workers does not
// hedge everything the moment it goes idle.
func (c *Coordinator) hedgeThresholdLocked() time.Duration {
	mean, _ := c.fleetLatencyLocked()
	return max(c.opts.leaseTTL()/2, time.Duration(slowFactor*mean*float64(time.Second)))
}

// stragglersLocked lists j's straggling leases that could move to
// worker, in grant order, at most room of them: tasks computing, and
// audit re-checks worker may take. The moved lease is an ordinary-looking
// lease to its new holder; the straggler hears it lost at its next
// heartbeat but may still upload, and the first idempotent ingest wins,
// the loser's upload absorbed as a duplicate (or as audit evidence). A
// lease whose result is being journalled stays put.
//
// This is what ends a lease whose holder keeps heartbeating but never
// uploads: no other rule takes a renewed lease away. A job's tail lease
// polls skip the walk until j.oldestLease straggles.
func (c *Coordinator) stragglersLocked(j *gridJob, worker string, room int, now time.Time) []*taskState {
	th := c.hedgeThresholdLocked()
	if j.pending+j.done == len(j.tasks) && j.audits == 0 || now.Sub(j.oldestLease) < th {
		return nil // no lease held, or none old enough to straggle
	}
	var out []*taskState
	oldest := now
	for _, st := range j.tasks {
		if len(out) == room {
			return out
		}
		if st.worker != "" && st.leasedAt.Before(oldest) {
			oldest = st.leasedAt
		}
		if st.worker != "" && st.worker != worker && !st.recording && now.Sub(st.leasedAt) >= th &&
			(st.status == taskLeased || auditGrantable(st, worker, now)) {
			out = append(out, st)
		}
	}
	j.oldestLease = oldest
	return out
}

// hasPendingLocked walks the grant cursor up to the first pending task.
func (j *gridJob) hasPendingLocked() bool {
	for ; j.next < len(j.tasks); j.next++ {
		if j.tasks[j.next].status == taskPending {
			return true
		}
	}
	return false
}
