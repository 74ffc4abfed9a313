package grid

import (
	"io"
	"time"

	"repro/internal/gridobs"
	"repro/internal/obs"
)

// gridMetrics is every instrument the coordinator exports on
// GET /metrics. Counters and histograms are bumped inline on the hot
// paths; state-shaped gauges (queue depths, worker liveness, cache
// ratios, ETAs) are refreshed by a collect hook at scrape time so a
// scrape always sees current truth without a background updater.
type gridMetrics struct {
	reg *gridobs.Registry

	leaseRequests  *gridobs.Counter
	leasesGranted  *gridobs.Counter
	tasksIngested  *gridobs.Counter
	valuesIngested *gridobs.Counter
	duplicates     *gridobs.Counter
	requeues       *gridobs.Counter
	cacheServed    *gridobs.Counter
	authFailures   *gridobs.Counter
	httpRequests   *gridobs.CounterVec // code
	leaseLatency   *gridobs.Histogram
	httpDuration   *gridobs.Histogram

	// Byzantine-tolerance instruments (audit.go) and crash-recovery
	// bookkeeping (wal.go).
	auditsOpened    *gridobs.Counter
	auditsPassed    *gridobs.Counter
	auditMismatches *gridobs.Counter
	invalidated     *gridobs.Counter
	quarantines     *gridobs.Counter
	corruptBodies   *gridobs.Counter
	leaseHedged     *gridobs.Counter
	walRecords      *gridobs.Counter
	walReplayed     *gridobs.Gauge
	walSkipped      *gridobs.Gauge
	walReplaySecs   *gridobs.Gauge
	quarantinedVec  *gridobs.GaugeVec // worker

	// Trace-ingest counters: the fleet observability plane's own
	// health (POST /v1/trace volume and dedup effectiveness).
	traceUploads  *gridobs.Counter
	traceBytes    *gridobs.Counter
	traceSpans    *gridobs.Counter
	traceDedup    *gridobs.Counter
	traceJournals *gridobs.Gauge

	// Per-worker series built from the collected task and upload spans
	// (observeSpans). The counts stay gauges so a scraper sees the same
	// metric type under the same names.
	workerTasks       *gridobs.GaugeVec     // worker
	workerPoints      *gridobs.GaugeVec     // worker, kind
	workerRetries     *gridobs.GaugeVec     // worker
	workerTaskSeconds *gridobs.HistogramVec // worker, measure
	fleetTaskSeconds  *gridobs.HistogramVec // measure

	jobTasks      *gridobs.GaugeVec // job, state
	jobETA        *gridobs.GaugeVec // job
	workerLive    *gridobs.GaugeVec // worker
	workerLatency *gridobs.GaugeVec // worker
	workerFailure *gridobs.GaugeVec // worker
	workersLive   *gridobs.Gauge
	jobsTotal     *gridobs.Gauge
	jobsComplete  *gridobs.Gauge
	draining      *gridobs.Gauge
	cacheHits     *gridobs.Gauge
	cacheMisses   *gridobs.Gauge
	cacheEntries  *gridobs.Gauge
	cacheHitRatio *gridobs.Gauge
}

func newGridMetrics(c *Coordinator) *gridMetrics {
	r := gridobs.NewRegistry()
	m := &gridMetrics{
		reg: r,

		leaseRequests:  r.NewCounter("grid_lease_requests_total", "Grant decisions, empty ones included: a lease call, an upload asking the next grant, a held call asking again."),
		leasesGranted:  r.NewCounter("grid_leases_granted_total", "Tasks handed out on leases (re-leases included)."),
		tasksIngested:  r.NewCounter("grid_tasks_ingested_total", "Task results accepted and journalled."),
		valuesIngested: r.NewCounter("grid_values_ingested_total", "Individual point scores ingested — the ingest throughput counter."),
		duplicates:     r.NewCounter("grid_duplicate_uploads_total", "Uploads dropped as idempotent duplicates."),
		requeues:       r.NewCounter("grid_lease_expiries_total", "Leases that expired and re-queued their task."),
		cacheServed:    r.NewCounter("grid_cache_served_tasks_total", "Tasks served from the cross-job score cache without being leased."),
		authFailures:   r.NewCounter("grid_auth_failures_total", "Requests rejected for a missing or wrong auth token."),
		httpRequests:   r.NewCounterVec("grid_http_requests_total", "HTTP requests served, by status code.", "code"),
		leaseLatency: r.NewHistogram("grid_lease_latency_seconds",
			"Per-task lease latency: lease grant to result ingest.", gridobs.DefBuckets),
		httpDuration: r.NewHistogram("grid_http_request_duration_seconds",
			"HTTP request handling time.", gridobs.DefBuckets),

		auditsOpened:    r.NewCounter("grid_audits_opened_total", "Completed tasks silently re-leased for verification."),
		auditsPassed:    r.NewCounter("grid_audits_passed_total", "Audits settled with the recorded value confirmed."),
		auditMismatches: r.NewCounter("grid_audit_mismatches_total", "Uploads that contradicted a recorded value."),
		invalidated:     r.NewCounter("grid_tasks_invalidated_total", "Done tasks whose recorded value was discarded and re-queued."),
		quarantines:     r.NewCounter("grid_quarantines_total", "Workers quarantined (audit verdicts and quarantine journal replays)."),
		corruptBodies:   r.NewCounter("grid_corrupt_bodies_total", "Request bodies rejected for a checksum mismatch (transport corruption)."),
		leaseHedged:     r.NewCounter("grid_lease_hedged_total", "Straggling leases moved to an idle worker (hedges)."),
		walRecords:      r.NewCounter("grid_wal_records_total", "Quarantine verdicts appended to the quarantine journal (coordinator.wal)."),
		walReplayed:     r.NewGauge("grid_wal_replayed_records", "Quarantine journal records replayed at the last coordinator startup."),
		walSkipped:      r.NewGauge("grid_wal_skipped_records", "Quarantine journal lines skipped as corrupt (bad CRC or malformed) at the last coordinator startup."),
		walReplaySecs:   r.NewGauge("grid_wal_replay_seconds", "Seconds the last coordinator startup spent reading and decoding the quarantine journal."),
		quarantinedVec:  r.NewGaugeVec("grid_worker_quarantined", "1 while the worker is quarantined.", "worker"),

		traceUploads:  r.NewCounter("grid_trace_uploads_total", "Trace chunk uploads accepted."),
		traceBytes:    r.NewCounter("grid_trace_bytes_total", "Journal bytes appended to collected traces (post-dedup)."),
		traceSpans:    r.NewCounter("grid_trace_spans_total", "Span records appended to collected traces (post-dedup)."),
		traceDedup:    r.NewCounter("grid_trace_dedup_total", "Trace uploads that overlapped already-collected bytes (retries after a lost ack)."),
		traceJournals: r.NewGauge("grid_trace_journals", "Distinct (job, writer) journals collected."),

		workerTasks:   r.NewGaugeVec("grid_worker_tasks", "Tasks computed, per worker (from its collected task spans).", "worker"),
		workerPoints:  r.NewGaugeVec("grid_worker_points", "Design points by source, per worker (from its collected task spans).", "worker", "kind"),
		workerRetries: r.NewGaugeVec("grid_worker_upload_retries", "Upload retries, per worker (from its collected upload spans).", "worker"),
		workerTaskSeconds: r.NewHistogramVec("grid_worker_task_seconds",
			"Per-worker task compute latency by measure (from collected task spans).", gridobs.DefBuckets, "worker", "measure"),
		fleetTaskSeconds: r.NewHistogramVec("grid_fleet_task_seconds",
			"Fleet-wide task compute latency by measure (from collected task spans).", gridobs.DefBuckets, "measure"),

		jobTasks:      r.NewGaugeVec("grid_job_tasks", "Per-job task counts by state — pending is the queue depth.", "job", "state"),
		jobETA:        r.NewGaugeVec("grid_job_eta_seconds", "Estimated seconds until the job completes, from its observed completion rate. NaN before any progress.", "job"),
		workerLive:    r.NewGaugeVec("grid_worker_live", "1 if the worker was heard from within the liveness window.", "worker"),
		workerLatency: r.NewGaugeVec("grid_worker_latency_seconds", "EWMA of the worker's per-task wall time.", "worker"),
		workerFailure: r.NewGaugeVec("grid_worker_failure_ratio", "EWMA of the worker's lease-expiry rate (0 reliable, 1 failing).", "worker"),
		workersLive:   r.NewGauge("grid_workers_live", "Workers heard from within the liveness window."),
		jobsTotal:     r.NewGauge("grid_jobs", "Jobs registered."),
		jobsComplete:  r.NewGauge("grid_jobs_complete", "Jobs with every task done."),
		draining:      r.NewGauge("grid_draining", "1 while the coordinator is draining (no new leases)."),
		cacheHits:     r.NewGauge("grid_cache_hits", "Score cache hits (cumulative, from the cache's own counters)."),
		cacheMisses:   r.NewGauge("grid_cache_misses", "Score cache misses (cumulative)."),
		cacheEntries:  r.NewGauge("grid_cache_entries", "Distinct keys in the score cache."),
		cacheHitRatio: r.NewGauge("grid_cache_hit_ratio", "hits / (hits + misses); NaN before any lookup."),
	}
	r.NewGaugeFunc("grid_uptime_seconds", "Seconds since the coordinator started.", func() float64 {
		return time.Since(c.started).Seconds()
	})
	r.OnCollect(func() { c.collectGauges(m) })
	return m
}

// collectGauges refreshes every state-shaped gauge from the live view; it
// runs at scrape time.
func (c *Coordinator) collectGauges(m *gridMetrics) {
	v := c.liveView()

	m.jobTasks.Reset()
	m.jobETA.Reset()
	complete := 0
	for _, jv := range v.Jobs {
		m.jobTasks.With(jv.JobID, "pending").Set(float64(jv.Pending))
		m.jobTasks.With(jv.JobID, "leased").Set(float64(jv.Leased))
		m.jobTasks.With(jv.JobID, "done").Set(float64(jv.Done))
		m.jobTasks.With(jv.JobID, "total").Set(float64(jv.Total))
		m.jobETA.With(jv.JobID).Set(jv.ETA)
		if jv.Complete {
			complete++
		}
	}
	m.jobsTotal.Set(float64(len(v.Jobs)))
	m.jobsComplete.Set(float64(complete))

	m.workerLive.Reset()
	m.workerLatency.Reset()
	m.workerFailure.Reset()
	m.quarantinedVec.Reset()
	live := 0.0
	for _, wv := range v.Workers {
		if wv.Quarantined {
			m.quarantinedVec.With(wv.Name).Set(1)
		}
		if !wv.Heard {
			continue
		}
		m.workerLive.With(wv.Name).Set(b2f(wv.Live))
		live += b2f(wv.Live)
		m.workerLatency.With(wv.Name).Set(wv.Latency)
		m.workerFailure.With(wv.Name).Set(wv.FailRate)
	}
	m.workersLive.Set(live)
	m.draining.Set(b2f(v.Draining))
	if v.HasCache {
		m.cacheHits.Set(float64(v.Cache.Hits))
		m.cacheMisses.Set(float64(v.Cache.Misses))
		m.cacheEntries.Set(float64(v.Cache.Entries))
		m.cacheHitRatio.Set(v.HitRatio())
	}
	m.traceJournals.Set(float64(c.traces.journalCount()))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// observeSpans folds whole journal lines the trace collector accepted
// into the per-worker series: a "task" span is one task of its writer,
// its simulated and cache-served points, and its elapsed_us under its
// measure (per worker and fleet-wide); an "upload" span adds the attempts
// beyond its first. The collector hands over every byte range it appends
// and, once, what a journal it reopens already holds, so each collected
// span counts once per coordinator process and a departed worker's
// series stay. The counts and durations come from the worker, so a
// negative one counts as 0: no span can drive a series backwards.
func (m *gridMetrics) observeSpans(lines io.Reader) {
	recs, _ := obs.LoadReader(lines) // a range obs cannot read adds nothing
	for _, r := range recs {
		switch r.Name {
		case "task":
			measure, secs := r.AttrStr("measure"), float64(max(r.AttrInt("elapsed_us"), 0))/1e6
			m.workerTasks.With(r.Writer).Inc()
			m.workerPoints.With(r.Writer, "simulated").Add(float64(max(r.AttrInt("simulated"), 0)))
			m.workerPoints.With(r.Writer, "cache_served").Add(float64(max(r.AttrInt("cache_hits"), 0)))
			m.workerTaskSeconds.With(r.Writer, measure).Observe(secs)
			m.fleetTaskSeconds.With(measure).Observe(secs)
		case "upload":
			m.workerRetries.With(r.Writer).Add(float64(max(r.AttrInt("attempts")-1, 0)))
		}
	}
}
