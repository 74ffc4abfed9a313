package gridobs

import (
	"net/http"
	"time"
)

// WorkerMetrics is the worker-side metrics surface, served on
// `dsa-grid work -metrics-addr`: task throughput, simulated vs
// cache-served points, per-measure score latency and upload retries —
// the counters that say whether a worker is compute-bound, cache-fed
// or fighting its coordinator. All methods are safe on a nil receiver
// (a worker without -metrics-addr passes nil everywhere).
type WorkerMetrics struct {
	reg *Registry

	tasks           *Counter
	taskSeconds     *HistogramVec
	pointsSimulated *Counter
	pointsCached    *Counter
	leases          *Counter
	leasedTasks     *Counter
	uploads         *Counter
	uploadRetries   *Counter
	leasesLost      *Counter
}

// NewWorkerMetrics registers the worker metric family on r (a fresh
// registry if nil) and returns the typed handle the worker records
// through.
func NewWorkerMetrics(r *Registry) *WorkerMetrics {
	if r == nil {
		r = NewRegistry()
	}
	m := &WorkerMetrics{
		reg: r,
		tasks: r.NewCounter("worker_tasks_total",
			"Tasks computed by this worker."),
		taskSeconds: r.NewHistogramVec("worker_task_seconds",
			"Task compute latency by measure (cache lookups + simulation).",
			nil, "measure"),
		pointsSimulated: r.NewCounter("worker_points_simulated_total",
			"Design points actually simulated (score-cache misses)."),
		pointsCached: r.NewCounter("worker_points_cache_served_total",
			"Design points served from the score cache."),
		leases: r.NewCounter("worker_lease_requests_total",
			"Grants received: lease calls answered, and uploads whose ack carried the next grant."),
		leasedTasks: r.NewCounter("worker_leased_tasks_total",
			"Tasks granted across all grants received."),
		uploads: r.NewCounter("worker_uploads_total",
			"Task results acknowledged by the coordinator (one upload request may carry several)."),
		uploadRetries: r.NewCounter("worker_upload_retries_total",
			"Upload HTTP attempts beyond each call's first."),
		leasesLost: r.NewCounter("worker_leases_lost_total",
			"Leases reported lost by heartbeat (expired or re-leased)."),
	}
	start := time.Now()
	r.NewGaugeFunc("worker_uptime_seconds",
		"Seconds since this worker process started.",
		func() float64 { return time.Since(start).Seconds() })
	return m
}

// ObserveLease counts one grant received — a lease call's answer or an
// upload ack's — and the tasks it granted.
func (m *WorkerMetrics) ObserveLease(granted int) {
	if m == nil {
		return
	}
	m.leases.Inc()
	m.leasedTasks.Add(float64(granted))
}

// ObserveTask records one computed task: latency under its measure
// plus the simulated/cache-served point split.
func (m *WorkerMetrics) ObserveTask(measure string, elapsed time.Duration, simulated, cached int) {
	if m == nil {
		return
	}
	m.tasks.Inc()
	m.taskSeconds.With(measure).Observe(elapsed.Seconds())
	m.pointsSimulated.Add(float64(simulated))
	m.pointsCached.Add(float64(cached))
}

// ObserveUpload counts one acknowledged one-task upload and the retries
// it cost.
func (m *WorkerMetrics) ObserveUpload(retries int) { m.ObserveUploads(1, retries) }

// ObserveUploads counts one acknowledged upload body: the tasks it
// carried and the retries it cost.
func (m *WorkerMetrics) ObserveUploads(tasks, retries int) {
	if m == nil {
		return
	}
	m.uploads.Add(float64(tasks))
	if retries > 0 {
		m.uploadRetries.Add(float64(retries))
	}
}

// ObserveLeasesLost counts leases the coordinator reported lost.
func (m *WorkerMetrics) ObserveLeasesLost(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.leasesLost.Add(float64(n))
}

// WorkerSnapshot is a point-in-time copy of a worker's counters
// (cumulative since worker start) and per-measure latency histograms.
type WorkerSnapshot struct {
	Tasks           float64                 `json:"tasks"`
	PointsSimulated float64                 `json:"points_simulated"`
	PointsCached    float64                 `json:"points_cached"`
	Leases          float64                 `json:"leases"`
	LeasedTasks     float64                 `json:"leased_tasks"`
	Uploads         float64                 `json:"uploads"`
	UploadRetries   float64                 `json:"upload_retries"`
	LeasesLost      float64                 `json:"leases_lost"`
	TaskSeconds     map[string]HistSnapshot `json:"task_seconds,omitempty"`
}

// Snapshot copies the current counter values and per-measure latency
// histograms. Returns nil on a nil receiver.
func (m *WorkerMetrics) Snapshot() *WorkerSnapshot {
	if m == nil {
		return nil
	}
	s := &WorkerSnapshot{
		Tasks:           m.tasks.Value(),
		PointsSimulated: m.pointsSimulated.Value(),
		PointsCached:    m.pointsCached.Value(),
		Leases:          m.leases.Value(),
		LeasedTasks:     m.leasedTasks.Value(),
		Uploads:         m.uploads.Value(),
		UploadRetries:   m.uploadRetries.Value(),
		LeasesLost:      m.leasesLost.Value(),
	}
	m.taskSeconds.Each(func(values []string, h *Histogram) {
		if s.TaskSeconds == nil {
			s.TaskSeconds = make(map[string]HistSnapshot)
		}
		s.TaskSeconds[values[0]] = h.Snapshot()
	})
	return s
}

// Registry exposes the underlying registry (for composing extra
// collectors onto the same /metrics).
func (m *WorkerMetrics) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// Handler serves the registry in Prometheus text format — mount it on
// the worker's -metrics-addr mux.
func (m *WorkerMetrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", TextContentType)
		m.reg.WritePrometheus(w)
	})
}
