package grid

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/dsa"
)

// view is the coordinator's read model: jobs, workers, cache and drain
// state as of one instant, built once under the lock. The progress
// snapshot, the jobs listing, the dashboard rows and the scrape-time
// gauges all render from it, so a number means the same thing wherever an
// operator reads it.
type view struct {
	Now      time.Time
	Draining bool
	Jobs     []jobView    // in ID order
	Workers  []workerView // in name order
	HasCache bool
	Cache    dsa.CacheStats
}

// jobView is one job's ProgressSnapshot plus what only the listing, the
// dashboard and /metrics show.
type jobView struct {
	ProgressSnapshot
	Domain string
	// ETA is the seconds to completion at the job's observed rate — tasks
	// completed since work actually started (checkpoint restores don't
	// count, they were free): NaN before any progress, 0 once every task
	// is done.
	ETA float64
}

func (jv jobView) summary() JobSummary {
	return JobSummary{ID: jv.JobID, Domain: jv.Domain, TotalTasks: jv.Total, DoneTasks: jv.Done, Complete: jv.Complete}
}

// workerView is one worker's scorecard row. A quarantined worker the
// coordinator never heard from this run (verdict replayed from the WAL)
// still has one, with Heard false — an operator must be able to see every
// standing ban.
type workerView struct {
	Name        string
	Heard       bool
	Live        bool // heard from within livenessTTLs lease TTLs
	Quarantined bool
	Leased      int // leases held now: tasks computing and audit re-checks
	Done        uint64
	Failures    uint64
	Latency     float64 // EWMA seconds per task, 0 before any upload
	FailRate    float64 // EWMA of expiry-vs-completion outcomes, 0..1
	LastSeen    time.Time
}

// HitRatio is the cache's hits / (hits + misses); NaN before any lookup.
func (v view) HitRatio() float64 {
	if total := v.Cache.Hits + v.Cache.Misses; total > 0 {
		return float64(v.Cache.Hits) / float64(total)
	}
	return math.NaN()
}

// jobViewLocked walks j's task table once; each lease it finds — a task
// computing or an audit re-check — is counted against its holder in held.
func (c *Coordinator) jobViewLocked(j *gridJob, now time.Time, held map[string]int) jobView {
	jv := jobView{Domain: j.spec.Domain.Name(), ProgressSnapshot: ProgressSnapshot{
		JobID: j.id, Total: len(j.tasks), Done: j.done, Pending: j.pending, Requeues: j.requeues,
		CacheTasks: j.cacheServed, LeasesGranted: j.leasesGranted,
		Audits: j.audits, Complete: j.completeLocked(),
	}}
	holders := map[string]bool{}
	for _, st := range j.tasks {
		if st.status == taskLeased {
			jv.Leased++
			holders[st.worker] = true
		}
		if st.worker != "" {
			held[st.worker]++
		}
	}
	jv.Workers = len(holders)
	if j.done < len(j.tasks) {
		jv.ETA = math.NaN()
		progressed, elapsed := j.done-j.restored, now.Sub(j.startedAt).Seconds()
		if progressed > 0 && !j.startedAt.IsZero() && elapsed > 0 {
			jv.ETA = float64(len(j.tasks)-j.done) / (float64(progressed) / elapsed)
		}
	}
	return jv
}

// viewLocked builds the read model. It reads only: callers that want
// stale leases gone first run the lazy expiry themselves.
func (c *Coordinator) viewLocked() view {
	v := view{Now: c.now(), Draining: c.draining}
	held := map[string]int{}
	for _, j := range c.jobsLocked() {
		v.Jobs = append(v.Jobs, c.jobViewLocked(j, v.Now, held))
	}
	for name, ws := range c.workers {
		v.Workers = append(v.Workers, workerView{
			Name: name, Heard: true, Live: c.workerLive(ws, v.Now), Quarantined: c.quarantined[name],
			Leased: held[name], Done: ws.done, Failures: ws.failures,
			Latency: ws.latEWMA, FailRate: ws.failEWMA, LastSeen: ws.lastSeen,
		})
	}
	for name := range c.quarantined {
		if _, heard := c.workers[name]; !heard {
			v.Workers = append(v.Workers, workerView{Name: name, Quarantined: true})
		}
	}
	sort.Slice(v.Workers, func(a, b int) bool { return v.Workers[a].Name < v.Workers[b].Name })
	v.Cache, v.HasCache = c.CacheStats()
	return v
}

// liveView is the view after the lazy expiry of every job: what the
// dashboard and a /metrics scrape show.
func (c *Coordinator) liveView() view {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireAllLocked()
	return c.viewLocked()
}

// Progress returns a job's live snapshot.
func (c *Coordinator) Progress(id string) (ProgressSnapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return ProgressSnapshot{}, err
	}
	c.expireLocked(j)
	return c.jobViewLocked(j, c.now(), map[string]int{}).ProgressSnapshot, nil
}

// Summaries lists every job, sorted by ID.
func (c *Coordinator) Summaries() []JobSummary {
	c.mu.Lock()
	v := c.viewLocked()
	c.mu.Unlock()
	out := make([]JobSummary, len(v.Jobs))
	for i, jv := range v.Jobs {
		out[i] = jv.summary()
	}
	return out
}

// jobDetail is one job's summary plus its spec payload.
func (c *Coordinator) jobDetail(id string) (JobDetail, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return JobDetail{}, err
	}
	return JobDetail{JobSummary: c.jobViewLocked(j, c.now(), map[string]int{}).summary(), Spec: j.specRaw}, nil
}

// CacheStats reports the coordinator's score cache counters; ok is
// false when it runs without a cache. Counter details come from the
// cache's own Stats (internal/cache.Store provides them); a cache
// without that method still works, it just reports zeros. It touches
// only the cache, which has its own synchronization.
func (c *Coordinator) CacheStats() (dsa.CacheStats, bool) {
	if c.opts.Cache == nil {
		return dsa.CacheStats{}, false
	}
	if sp, ok := c.opts.Cache.(interface{ Stats() dsa.CacheStats }); ok {
		return sp.Stats(), true
	}
	return dsa.CacheStats{}, true
}

// Scores returns a completed job's assembled scores; ok is false while
// tasks are outstanding.
func (c *Coordinator) Scores(id string) (s *dsa.Scores, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return nil, false, err
	}
	if !j.completeLocked() {
		return nil, false, nil
	}
	return j.scores, true, j.scoresErr
}

// WaitComplete blocks until the job's last task is done (returning the
// assembled scores) or ctx is cancelled.
func (c *Coordinator) WaitComplete(ctx context.Context, id string) (*dsa.Scores, error) {
	for {
		c.mu.Lock()
		j, err := c.getJob(id)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if j.completeLocked() {
			s, serr := j.scores, j.scoresErr
			c.mu.Unlock()
			return s, serr
		}
		changed := j.changed.wait()
		c.mu.Unlock()
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// finished is Scores for the results route: a complete job's scores and
// its domain, or the error that says why not — unknown, failed to
// assemble, or incomplete with the progress so far.
func (c *Coordinator) finished(id string) (*dsa.Scores, dsa.Domain, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return nil, nil, err
	}
	if !j.completeLocked() {
		c.expireLocked(j)
		return nil, nil, &incompleteError{c.jobViewLocked(j, c.now(), map[string]int{}).ProgressSnapshot}
	}
	return j.scores, j.spec.Domain, j.scoresErr
}
