package grid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/dsa"
	"repro/internal/gridobs"
	"repro/internal/job"
)

// DefaultLeaseTTL is the CoordinatorOptions.LeaseTTL zero value's meaning.
const DefaultLeaseTTL = 30 * time.Second

// Linger is how long a coordinator serving one job keeps its API up
// after the job completes, so the workers' last polls see it complete
// and can fetch the assembled scores before the server goes away.
const Linger = 2 * time.Second

// Constants to every caller; only this package's tests set the
// unexported CoordinatorOptions fields that override them.
const (
	// DefaultMaxLease caps tasks granted per lease call. Pending tasks
	// are granted in job.Spec.Tasks order, chunk by chunk, so a cap that
	// is a multiple of the domain's measure count hands a worker whole
	// chunk groups, which its ExecTasks scores jointly when the domain
	// shares runs between measures; any other cap splits groups and
	// costs only that sharing.
	DefaultMaxLease = 4
	// DefaultMaxBody caps request bodies, rejected with 413 before any
	// decoding; a result upload for a huge task fits comfortably, a
	// runaway or hostile body does not.
	DefaultMaxBody = 64 << 20
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Dir is the checkpoint root; each job journals into Dir/<job-id>
	// in the internal/job checkpoint format, so a restarted
	// coordinator resumes where it left off and job.Load/dsa-report
	// read the directory directly. Shipped worker traces are collected
	// under Dir/<job-id>/trace/ in the internal/obs journal format.
	// "" keeps results in memory only (collected traces then live in a
	// temp dir removed on Close).
	Dir string
	// LeaseTTL is how long a lease lives without a heartbeat before
	// its task is re-queued. 0 = DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Logger, if non-nil, receives the coordinator's records: its
	// decisions and one access record per request (2xx GETs and /metrics
	// at Debug), keyed rid, job, worker, task, tasks.
	Logger *slog.Logger
	// Cache, if non-nil, is the coordinator's cross-job score cache.
	// Every ingested or checkpoint-restored result feeds it, and every
	// job draws from it: a task whose per-point scores are all already
	// known is served as an ingested result (journalled, counted done)
	// instead of ever being leased — so overlapping jobs, whatever
	// their chunking, pay for each score once. Stats are served on
	// GET /v1/cache.
	Cache dsa.ScoreCache

	// AuthToken, when non-empty, switches on shared-secret worker
	// auth: lease, heartbeat, result upload, job creation and drain
	// require `Authorization: Bearer <token>` (compared in constant
	// time). Read-only endpoints — listings, progress, results,
	// metrics, the dashboard — stay open so operators can observe a
	// grid they cannot drive.
	AuthToken string
	// RateLimit is the per-client admission rate in requests/second
	// against the /v1 API (metrics scrapes are never limited); 0
	// disables limiting. Clients are keyed by remote IP.
	RateLimit float64
	// RateBurst is the token-bucket burst capacity; 0 derives a
	// one-second burst from RateLimit.
	RateBurst float64
	// Pprof, when set, mounts net/http/pprof under /debug/pprof/ on
	// the coordinator mux, behind the same bearer auth as the write
	// endpoints when AuthToken is set.
	Pprof bool

	// AuditRate is the fraction (0..1) of completed tasks silently
	// re-leased to a different worker for byte-exact verification (see
	// audit.go). Selection is a deterministic hash of (job, task), so
	// restarts re-arm exactly the audits that were open. 0 disables
	// auditing; with auditing on, the score cache is fed only by
	// audit-verified values for the selected tasks.
	AuditRate float64
	// Hedge enables speculative duplicate leases: a leased task past
	// the straggler threshold (slowFactor x the fleet-mean EWMA task
	// latency, floored at half the lease TTL) is offered once more to
	// a different worker; the first idempotent ingest wins. Off by
	// default — hedging trades duplicate compute for tail latency.
	Hedge bool

	maxLease int   // 0 = DefaultMaxLease
	maxBody  int64 // 0 = DefaultMaxBody
}

func (o CoordinatorOptions) leaseTTL() time.Duration {
	if o.LeaseTTL > 0 {
		return o.LeaseTTL
	}
	return DefaultLeaseTTL
}

// Coordinator owns grid jobs: it serves leases, ingests results into
// the checkpoint format, and exposes the live JSON API plus /metrics
// and the dashboard. Create one with NewCoordinator, register sweeps
// with AddJob (or let clients POST them), and mount Handler on an HTTP
// server (or call Serve).
type Coordinator struct {
	opts    CoordinatorOptions
	log     *slog.Logger
	now     func() time.Time // injectable clock for tests
	started time.Time
	metrics *gridMetrics
	limiter *gridobs.Limiter
	traces  *traceCollector // collected worker journals

	mu      sync.Mutex
	jobs    map[string]*gridJob
	workers map[string]*workerStats
	// quarantined workers get 429 on every lease, heartbeat and
	// upload; membership survives restarts via the WAL.
	quarantined map[string]bool
	// wal journals scheduling state (nil without Dir, or after an open
	// failure — the grid then runs, loudly, without crash recovery).
	wal *wal
	// walRecs holds the WAL's records, in the order they were written,
	// until AddJob registers the job they name and replays them (a
	// quarantine names none, and stays for every job to come).
	walRecs []walRecord
	// cacheEpoch counts cache-feeding events (ingests, checkpoint
	// restores). Each job remembers the epoch it last scanned the
	// cache at, so the pending-task rescan in Lease runs only when
	// the cache could actually have gained something — not on every
	// poll of an idle grid.
	cacheEpoch uint64

	// draining is set by Drain: no new leases are granted, and once
	// every in-flight lease settles (uploads or expires) drainDone is
	// closed — the graceful-exit signal Serve and dsa-grid wait on.
	draining    bool
	drainClosed bool
	drainDone   chan struct{}
}

type taskStatus int

const (
	taskPending taskStatus = iota
	taskLeased
	taskDone
)

// taskState is everything the coordinator knows about one task: where it
// is in the lease machine, who holds it, and — once done — the value on
// record, who produced it and how far its audit got. What of this a
// restart gets back, and from which file, is DESIGN.md's "one rule".
type taskState struct {
	task      job.Task
	id        string // task.ID()
	idx       int    // position in gridJob.tasks
	status    taskStatus
	worker    string // holder while leased
	deadline  time.Time
	leasedAt  time.Time // last lease grant, for the lease-latency histogram
	recording bool      // a manifest append for this task is running outside the lock

	// Speculative duplicate lease (CoordinatorOptions.Hedge): a second
	// worker racing the straggling primary. First ingest wins; a dead
	// primary promotes the hedge instead of re-queueing.
	hedgeWorker   string
	hedgeDeadline time.Time

	// While done: the recorded value (the manifest holds the durable
	// copy), the worker it came from, and whether a second worker has
	// confirmed it. producer is kept regardless of AuditRate — it is what
	// a later quarantine sweeps.
	values   []float64
	producer string
	verified bool
	audit    *auditState // open audit (audit.go); nil once settled or never selected
	// tainted marks a task whose recorded value was invalidated: the
	// cache may still hold the bad per-point scores, so the absorb scan
	// must not serve them back until an honest re-run overwrites.
	tainted bool
}

type gridJob struct {
	id      string
	spec    job.Spec
	specRaw json.RawMessage
	weight  int // fair-share priority weight, >= 1
	// tasks is the task table in job.Spec.Tasks order (chunk-major) — the
	// grant order, and the order of every scan; index finds a task by ID.
	tasks     []*taskState
	index     map[string]int
	cp        *job.Checkpoint // nil without a checkpoint dir
	done      int
	audits    int       // open audits (setAudit); gates completion
	requeues  int       // expire records: leases of any kind that ended without a result
	restored  int       // tasks restored from checkpoint at registration
	startedAt time.Time // first lease grant; anchors the ETA estimate
	// leasesGranted counts lease records — tasks and audits handed out,
	// re-leases and promotions included, hedges not — the fair
	// scheduler's deficit measure.
	leasesGranted int
	scores        *dsa.Scores // assembled once complete
	scoresErr     error
	changed       chan struct{} // closed and replaced on every state change

	// next is the grant cursor: no task of tasks[:next] is pending, so a
	// grant scans from here, not from 0 (requeue moves it back).
	// scanned counts the tasks grants have looked at: over a job's life,
	// its tasks plus what re-queues made them look at again.
	next, scanned int

	// Score-cache plumbing (nil/zero without CoordinatorOptions.Cache):
	// the job's key derivation context and per-point IDs, the epoch of
	// its last cache scan, and how many of its tasks the cache served.
	keyer         *dsa.ScoreKeyer
	ids           []int // stable point IDs aligned with spec.Points
	absorbedEpoch uint64
	cacheServed   int
}

// completeLocked is the job-completion predicate: every task done AND
// every audit settled — a job with open audits may still re-queue work.
func (j *gridJob) completeLocked() bool {
	return j.done == len(j.tasks) && j.audits == 0
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.maxLease <= 0 {
		opts.maxLease = DefaultMaxLease
	}
	if opts.maxBody <= 0 {
		opts.maxBody = DefaultMaxBody
	}
	// cacheEpoch starts at 1 so a fresh job (absorbedEpoch zero value
	// 0) always runs its first cache scan, even before any ingest.
	c := &Coordinator{
		opts:        opts,
		log:         orSilent(opts.Logger),
		now:         time.Now,
		started:     time.Now(),
		jobs:        map[string]*gridJob{},
		workers:     map[string]*workerStats{},
		quarantined: map[string]bool{},
		cacheEpoch:  1,
		drainDone:   make(chan struct{}),
	}
	c.limiter = gridobs.NewLimiter(opts.RateLimit, opts.RateBurst)
	c.metrics = newGridMetrics(c)
	c.traces = newTraceCollector(opts.Dir, c.metrics.observeSpans)
	if opts.Dir != "" {
		replayStart := time.Now()
		w, recs, skipped, err := openWAL(opts.Dir)
		replaySecs := time.Since(replayStart).Seconds()
		if err != nil {
			// Run without crash recovery rather than not at all — but
			// say so every startup, loudly.
			c.log.Error("WAL unavailable, coordinator runs WITHOUT crash recovery", "err", err)
		} else {
			c.wal = w
			// A quarantine stands from now on; what it and the other
			// records did to a job waits for AddJob to register it.
			c.walRecs = recs
			for _, r := range recs {
				if r.T == walQuarantine {
					c.apply(nil, r, c.now())
				}
			}
			if len(recs) > 0 || skipped > 0 {
				c.log.Info("WAL replayed", "records", len(recs), "skipped", skipped)
			}
			c.metrics.walReplayed.Set(float64(len(recs)))
			c.metrics.walSkipped.Set(float64(skipped))
			c.metrics.walReplaySecs.Set(replaySecs)
			c.metrics.quarantines.Add(float64(len(c.quarantined)))
		}
	}
	return c
}

// walAppendLocked journals records, logging (never failing the caller)
// on write trouble: the WAL losing a record degrades a future restart,
// not the current run. sync is reserved for verdict-grade records.
func (c *Coordinator) walAppendLocked(sync bool, recs ...walRecord) {
	if c.wal == nil || len(recs) == 0 {
		return
	}
	if err := c.wal.append(sync, recs...); err != nil {
		c.log.Error("WAL append failed", "err", err)
		return
	}
	c.metrics.walRecords.Add(float64(len(recs)))
}

// commit is the one place a decision becomes state. The live paths look
// at the task table, decide and build their records; commit passes each
// through its transition (apply), journals them as one write — fsynced if
// a verdict is among them (verify, quarantine: not to be re-litigated
// after a power loss; the rest only has to survive a kill -9, which a
// plain write does) — bumps the counters that restate a record type, logs
// the event (msg "" logs nothing; rid, if any, ties the record to its
// request), and then wakes and drain-checks what the records may have
// completed. j is the job every record is for; with j nil each
// record names its own (a quarantine's revocations span jobs, and the
// quarantine itself acts on all of them).
func (c *Coordinator) commit(j *gridJob, now time.Time, recs []walRecord, rid, msg string, attrs ...any) {
	verdict := false
	for _, r := range recs {
		target := j
		if target == nil {
			target = c.jobs[r.Job]
		}
		c.apply(target, r, now)
		switch r.T {
		case walLease:
			c.metrics.leasesGranted.Inc()
		case walHedge:
			c.metrics.leaseHedged.Inc()
		case walExpire:
			c.metrics.requeues.Inc()
		case walVerify:
			c.metrics.auditsPassed.Inc()
			verdict = true
		case walQuarantine:
			c.metrics.quarantines.Inc()
			verdict = true
		}
	}
	c.walAppendLocked(verdict, recs...)
	if msg != "" {
		if rid != "" {
			attrs = append([]any{"rid", rid}, attrs...)
		}
		c.log.Info(msg, attrs...)
	}
	switch {
	case j == nil:
		for _, each := range c.jobsLocked() {
			c.wakeLocked(each)
		}
	case c.jobs[j.id] == j:
		c.wakeLocked(j)
	default:
		// Still registering: its values are not restored yet and nobody
		// waits on it; registerLocked wakes it.
		return
	}
	c.checkDrainedLocked()
}

// Metrics exposes the coordinator's registry — what GET /metrics
// serves — for embedding callers that scrape in-process.
func (c *Coordinator) Metrics() *gridobs.Registry { return c.metrics.reg }

// jobID derives a stable identifier from the spec payload, so the same
// sweep always maps to the same job (idempotent creation) and a
// restarted coordinator reopens the same checkpoint subdirectory.
func jobID(domain string, specRaw []byte) string {
	h := fnv.New64a()
	h.Write(specRaw)
	return fmt.Sprintf("%s-%012x", domain, h.Sum64()&0xffffffffffff)
}

// AddJob registers a sweep at the default priority. Adding a spec that
// is already registered returns the existing job's ID. With a
// checkpoint dir configured, completed tasks are restored from disk
// before any lease is granted.
func (c *Coordinator) AddJob(spec job.Spec) (string, error) {
	return c.AddJobPriority(spec, 1)
}

// AddJobPriority registers a sweep with a fair-share weight: against
// other concurrent jobs, this job receives leased tasks in proportion
// to its priority (a priority-3 job gets ~3x the grant share of a
// priority-1 job while both have pending work). priority < 1 is
// treated as 1. Re-adding an existing job updates its priority.
func (c *Coordinator) AddJobPriority(spec job.Spec, priority int) (string, error) {
	if priority < 1 {
		priority = 1
	}
	if err := spec.Cfg.Validate(); err != nil {
		return "", err
	}
	if spec.Points == nil {
		spec.Points = spec.Domain.Space().Enumerate()
	}
	specRaw, err := job.EncodeSpec(spec)
	if err != nil {
		return "", err
	}
	id := jobID(spec.Domain.Name(), specRaw)

	c.mu.Lock()
	j, err := c.registerLocked(id, spec, specRaw, priority)
	c.mu.Unlock()
	if err != nil {
		return "", err
	}
	if j != nil {
		// Registration is visible before the absorb scan; a concurrent
		// Lease absorbing the same job is harmless (the epoch gate and
		// recording flags keep the work single-shot).
		c.absorbCache(j)
	}
	return id, nil
}

// registerLocked adds the job, restored from its checkpoint and the WAL;
// for one already registered it only updates the priority and returns
// nil.
func (c *Coordinator) registerLocked(id string, spec job.Spec, specRaw []byte, priority int) (*gridJob, error) {
	now := c.now()
	if j, ok := c.jobs[id]; ok {
		if j.weight != priority {
			c.commit(j, now, []walRecord{{T: walPriority, Job: id, Weight: priority}}, "",
				"job priority set", "job", id, "priority", priority)
		}
		return nil, nil
	}
	j := &gridJob{
		id:      id,
		spec:    spec,
		specRaw: specRaw,
		weight:  priority,
		index:   map[string]int{},
		changed: make(chan struct{}),
	}
	for i, t := range spec.Tasks() {
		j.tasks = append(j.tasks, &taskState{task: t, id: t.ID(), idx: i})
		j.index[t.ID()] = i
	}
	if c.opts.Cache != nil {
		keyer, err := dsa.NewScoreKeyer(spec.Domain, spec.Domain.SampleOpponents(spec.Cfg), spec.Cfg)
		if err != nil {
			return nil, err
		}
		ids := make([]int, len(spec.Points))
		for i, p := range spec.Points {
			if ids[i], err = spec.Domain.PointID(p); err != nil {
				return nil, err
			}
		}
		j.keyer, j.ids = keyer, ids
	}
	if c.opts.Dir != "" {
		cp, err := job.OpenCheckpoint(filepath.Join(c.opts.Dir, id), spec)
		if err != nil {
			return nil, err
		}
		j.cp = cp
	}
	// Replay: the journalled records that name this job, and the
	// quarantines between them, through the live transitions in the order
	// they were written. Leases re-arm with a fresh TTL from *this*
	// coordinator's clock.
	replayed, rest := 0, c.walRecs[:0]
	for _, r := range c.walRecs {
		if r.Job == id || r.T == walQuarantine {
			c.apply(j, r, now)
			replayed++
		}
		if r.Job != id {
			rest = append(rest, r)
		}
	}
	c.walRecs = rest
	c.reconcileLocked(j, now)
	j.restored = j.done
	// A restored job's own results never complete its own tasks, but
	// they must still trigger a scan of *this* job against what other
	// jobs cached before it arrived.
	j.absorbedEpoch = 0
	c.wakeLocked(j)
	c.jobs[id] = j
	c.log.Info("job registered", "job", id, "tasks", len(j.tasks), "restored", j.restored,
		"replayed", replayed, "priority", j.weight)
	return j, nil
}

// reconcileLocked is where the two journals meet after a replay: the
// WAL has said who and when, the manifest says which values stand. A
// task is done exactly if the manifest holds its value; then, in task
// order, what a crash interrupted is finished — a quarantine whose
// revocations or tombstones did not all reach the disk, an audit the WAL
// never saw opened — and the cache is fed with everything that stands.
func (c *Coordinator) reconcileLocked(j *gridJob, now time.Time) {
	var restored map[string][]float64
	if j.cp != nil {
		restored = j.cp.Completed()
	}
	if revoked := j.revocations(func(w string) bool { return c.quarantined[w] }); len(revoked) > 0 {
		c.commit(j, now, revoked, "", "")
	}
	var unrecorded []walRecord
	for _, st := range j.tasks {
		st.values = restored[st.id]
		switch {
		case st.values == nil:
			if st.status == taskDone {
				// The WAL saw the ingest, the manifest holds a tombstone
				// behind it or lost the line: the task re-runs.
				j.invalidate(st)
			}
		case st.tainted:
			// The WAL saw the value voided; the tombstone did not land.
			c.tombstoneLocked(j, st)
			st.values = nil
		case st.status != taskDone:
			// Done with no ingest on record (the crash fell between the
			// manifest and the WAL, or the manifest came from a local
			// sweep): an ingest from nobody, journalled now, so what is
			// written about the task from here on replays against it done.
			unrecorded = append(unrecorded, walRecord{T: walIngest, Job: j.id, Task: st.id})
		}
	}
	if len(unrecorded) > 0 {
		c.commit(j, now, unrecorded, "", "")
	}
	for _, st := range j.tasks {
		if st.status != taskDone {
			continue
		}
		switch {
		case st.unauditedBy(st.producer) && c.quarantined[st.producer]:
			c.invalidateTaskLocked(j, st)
		case st.audit != nil:
			// With auditing on, selected values feed only once verified.
		case c.auditEnabled() && !st.verified && auditSelected(j.id, st.id, c.opts.AuditRate):
			j.setAudit(st, &auditState{original: st.producer, relaxAt: now.Add(c.opts.leaseTTL())})
		default:
			c.feedCacheLocked(j, st.task, st.values)
		}
	}
	c.metrics.auditsOpened.Add(float64(j.audits))
}

// feedCacheLocked records one finished task's per-point scores in the
// cross-job cache and bumps the epoch so *other* jobs rescan their
// pending tasks on their next lease. The feeding job itself is marked
// up to date: one job's tasks partition its (measure, point) pairs, so
// its own results can never complete another of its own tasks, and
// counting self-feeds would make every single-job grid rescan all
// pending tasks after every ingest for nothing.
func (c *Coordinator) feedCacheLocked(j *gridJob, t job.Task, vals []float64) {
	if c.opts.Cache == nil || j.keyer == nil || len(vals) != t.Hi-t.Lo {
		return
	}
	for i := t.Lo; i < t.Hi; i++ {
		c.opts.Cache.Put(j.keyer.Key(t.Measure, j.ids[i]), vals[i-t.Lo])
	}
	c.cacheEpoch++
	j.absorbedEpoch = c.cacheEpoch
}

// absorbedTask is one task whose values the cache fully supplied,
// in flight between the locked scan and the locked finalize.
type absorbedTask struct {
	st   *taskState
	vals []float64
}

// collectCacheHitsLocked scans j's not-yet-done tasks against the
// cache and claims every full hit (recording=true, exactly like an
// in-flight ingest, so no lease/upload/second scan races it). The scan
// is memory-speed (key hashing + map lookups, no I/O) and is
// skipped entirely unless the cache gained foreign entries since this
// job last looked (see cacheEpoch).
func (c *Coordinator) collectCacheHitsLocked(j *gridJob) []absorbedTask {
	if c.opts.Cache == nil || j.keyer == nil || j.absorbedEpoch == c.cacheEpoch {
		return nil
	}
	j.absorbedEpoch = c.cacheEpoch
	if j.done == len(j.tasks) {
		return nil
	}
	var hits []absorbedTask
	for _, st := range j.tasks {
		// A tainted task's cached per-point scores may be the very lie
		// that was just invalidated — only an honest re-compute clears it.
		if st.status == taskDone || st.recording || st.tainted {
			continue
		}
		t := st.task
		vals := make([]float64, t.Hi-t.Lo)
		hit := true
		for i := t.Lo; i < t.Hi; i++ {
			v, ok := c.opts.Cache.Get(j.keyer.Key(t.Measure, j.ids[i]))
			if !ok {
				hit = false
				break
			}
			vals[i-t.Lo] = v
		}
		if hit {
			st.recording = true
			hits = append(hits, absorbedTask{st: st, vals: vals})
		}
	}
	return hits
}

// absorbCache serves every task of j whose per-point scores the cache
// already holds — journalling each through the checkpoint and commit
// like an uploaded result from nobody, so cache-served and
// worker-computed values are indistinguishable on disk and in the
// results (determinism makes them identical by construction). Like an
// ingest, the manifest append (all hits, one fsync) runs outside the
// coordinator lock: a large absorbed job must not stall every other
// worker's leases and heartbeats behind it.
func (c *Coordinator) absorbCache(j *gridJob) {
	c.mu.Lock()
	hits := c.collectCacheHitsLocked(j)
	c.mu.Unlock()
	if len(hits) == 0 {
		return
	}

	recs := make([]job.Result, len(hits))
	for i, h := range hits {
		recs[i] = job.Result{Task: h.st.task, Values: h.vals}
	}
	err := recordTasks(j.cp, recs)

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, h := range hits {
		h.st.recording = false
	}
	if err != nil {
		// The tasks stay pending: workers will compute and re-upload
		// them, taking the normal ingest error path.
		c.log.Error("cache absorption failed to journal", "job", j.id, "tasks", len(hits), "err", err)
		c.checkDrainedLocked()
		return
	}
	ingests := make([]walRecord, len(hits))
	for i, h := range hits {
		// An ingest from nobody: the value came from the cache.
		h.st.values = h.vals
		ingests[i] = walRecord{T: walIngest, Job: j.id, Task: h.st.id}
	}
	j.cacheServed += len(hits)
	c.metrics.cacheServed.Add(float64(len(hits)))
	c.commit(j, c.now(), ingests, "", "tasks served from the score cache", "job", j.id, "tasks", len(hits))
}

// recordTasks journals finished tasks through cp with one append (nil:
// an in-memory job, nothing to write). Callers run it outside the
// coordinator lock with the tasks marked recording, so a panicking write
// comes back as an error: it must not leak recording=true and strand the
// tasks (the HTTP handler would otherwise swallow the panic).
func recordTasks(cp *job.Checkpoint, recs []job.Result) (err error) {
	if cp == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grid: job checkpoint write panicked: %v", r)
		}
	}()
	return cp.RecordAll(recs)
}

// Close releases every job's checkpoint handle and the WAL.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.jobs {
		if j.cp != nil {
			if err := j.cp.Close(); err != nil && first == nil {
				first = err
			}
			j.cp = nil
		}
	}
	if c.wal != nil {
		if err := c.wal.Close(); err != nil && first == nil {
			first = err
		}
		c.wal = nil
	}
	if err := c.traces.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

var (
	errUnknownJob  = errors.New("grid: unknown job")
	errUnknownTask = errors.New("grid: unknown task")
	errDraining    = errors.New("grid: coordinator is draining")
	errQuarantined = errors.New("grid: worker is quarantined")
)

func (c *Coordinator) getJob(id string) (*gridJob, error) {
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownJob, id)
	}
	return j, nil
}

// expireLocked ends every lease of j whose deadline has passed —
// primary, hedge or audit — scoring the expiry against the worker that
// went silent. A task with a live hedge promotes the hedge to primary
// instead of re-queueing (the expiry still counts), and an arbitration
// that ran out of road (no third worker ever arrived) re-queues its
// task. Tasks are walked in grant order and the records leave as one
// commit. Expiry is lazy: it runs at the top of every API call that
// looks at task state, which is the only time staleness could matter
// (plus the drain loop's ticks).
func (c *Coordinator) expireLocked(j *gridJob) {
	now := c.now()
	var recs []walRecord
	var splits []*taskState
	expired := 0
	expire := func(st *taskState, worker string) {
		recs = append(recs, walRecord{T: walExpire, Job: j.id, Task: st.id, Worker: worker})
		expired++
	}
	for _, st := range j.tasks {
		if st.status == taskLeased {
			// A dead hedge clears: the primary still owns the task.
			hedgeDead := st.hedgeWorker != "" && st.hedgeDeadline.Before(now)
			if hedgeDead {
				expire(st, st.hedgeWorker)
			}
			if st.deadline.Before(now) {
				expire(st, st.worker)
				if st.hedgeWorker != "" && !hedgeDead {
					// Promote the live hedge: the task never reaches the
					// queue, the racer simply becomes the owner.
					recs = append(recs, walRecord{T: walLease, Job: j.id, Task: st.id, Worker: st.hedgeWorker})
				}
			}
		}
		ast := st.audit
		if ast == nil {
			continue
		}
		lapsed := ast.auditor != "" && ast.deadline.Before(now)
		if lapsed {
			expire(st, ast.auditor)
		}
		if (ast.auditor == "" || lapsed) && ast.second != "" && !ast.giveUpAt.IsZero() && ast.giveUpAt.Before(now) {
			splits = append(splits, st)
		}
	}
	for _, st := range splits {
		// Unresolvable split (e.g. both claimants quarantine-proof in a
		// 2-worker grid): discard both claims and re-run.
		c.log.Info("audit split unresolved, re-queueing", "job", j.id, "task", st.id,
			"original", st.audit.original, "second", st.audit.second)
		c.invalidateTaskLocked(j, st)
	}
	if len(recs) > 0 {
		c.commit(j, now, recs, "", "leases expired, tasks re-queued", "job", j.id, "tasks", expired)
	}
}

// expireAllLocked runs the lazy expiry over every job.
func (c *Coordinator) expireAllLocked() {
	for _, j := range c.jobsLocked() {
		c.expireLocked(j)
	}
}

// wakeLocked tells whoever waits on j that its state changed. If the
// change was its last task done or its last audit settled, the scores are
// assembled first — once per completion; an invalidation (quarantine)
// clears the result and reopens it.
func (c *Coordinator) wakeLocked(j *gridJob) {
	if j.completeLocked() && j.scores == nil && j.scoresErr == nil {
		results := make(map[string][]float64, len(j.tasks))
		for _, st := range j.tasks {
			results[st.id] = st.values
		}
		j.scores, j.scoresErr = j.spec.AssembleScores(results)
		if j.scoresErr != nil {
			c.log.Error("job assembly failed", "job", j.id, "err", j.scoresErr)
		} else {
			c.log.Info("job complete", "job", j.id, "tasks", len(j.tasks), "requeues", j.requeues)
		}
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// grantLocked hands out up to max tasks of j to worker, shaping max by
// the worker's score first. Grant order: audit re-leases (a few
// re-checks catch a liar before it poisons more), then pending tasks,
// then — with hedging on and capacity to spare — speculative
// duplicates of straggling leases. One commit per grant, in grant order.
// fair says the scheduler picked j (the record then shows its share);
// rid ties the record to the lease request.
func (c *Coordinator) grantLocked(j *gridJob, worker string, max int, fair bool, rid string) []LeaseTask {
	if max <= 0 || max > c.opts.maxLease {
		max = c.opts.maxLease
	}
	max = c.grantCapLocked(worker, max)
	now, ttl := c.now(), c.opts.leaseTTL()
	var recs []walRecord
	var tasks []LeaseTask
	grant := func(t string, st *taskState) {
		recs = append(recs, walRecord{T: t, Job: j.id, Task: st.id, Worker: worker})
		tasks = append(tasks, LeaseTask{Task: st.id, Measure: st.task.Measure, Lo: st.task.Lo, Hi: st.task.Hi, TTLMS: ttl.Milliseconds()})
	}
	var audits []*taskState
	if worker != "" && j.audits > 0 {
		for _, st := range j.tasks {
			if len(recs) == max {
				break
			}
			if auditGrantable(st, worker, now) {
				grant(walLease, st)
				audits = append(audits, st)
			}
		}
	}
	for ; j.next < len(j.tasks) && len(recs) < max; j.next++ {
		j.scanned++
		if st := j.tasks[j.next]; st.status == taskPending {
			grant(walLease, st)
		}
	}
	leases := len(recs) // audit + pending grants: what the fair share counts
	for _, st := range c.stragglersLocked(j, worker, max-leases, now) {
		grant(walHedge, st)
	}
	if len(recs) == 0 {
		return nil
	}
	attrs := []any{"job", j.id, "worker", worker, "tasks", len(tasks)}
	if fair {
		attrs = append(attrs, "fair_share", j.leasesGranted+leases, "weight", j.weight)
	}
	c.commit(j, now, recs, rid, "leased", attrs...)
	// Who holds a re-check is the grant's to note, not the journal's.
	for _, st := range audits {
		st.audit.auditor, st.audit.deadline = worker, now.Add(ttl)
	}
	if j.startedAt.IsZero() {
		j.startedAt = now
	}
	return tasks
}

// Lease grants worker up to max tasks of one job: job id, or with id ""
// whichever the fair scheduler picks — the eligible job with the lowest
// granted-per-weight share (pickJobLocked). What the cache already knows
// is served before anything is handed out (overlapping jobs ingested
// since the last scan may have made whole pending tasks free, and an
// absorbed job may complete without ever dispatching work); the
// quarantined are refused; while the coordinator drains no tasks are
// granted and the response says so.
func (c *Coordinator) Lease(ctx context.Context, id, worker string, max int) (LeaseResponse, error) {
	c.metrics.leaseRequests.Inc()
	c.mu.Lock()
	var scope []*gridJob
	if id == "" {
		scope = c.jobsLocked()
	} else {
		j, err := c.getJob(id)
		if err != nil {
			c.mu.Unlock()
			return LeaseResponse{}, err
		}
		scope = []*gridJob{j}
	}
	c.mu.Unlock()
	for _, j := range scope {
		c.absorbCache(j)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.quarantined[worker] {
		return LeaseResponse{}, fmt.Errorf("%w: %s", errQuarantined, worker)
	}
	var j *gridJob
	if id != "" {
		j = scope[0]
		c.expireLocked(j)
	} else if !c.draining {
		j = c.pickJobLocked(worker) // expires every job on its way
	}
	resp := LeaseResponse{Draining: c.draining}
	if j != nil {
		resp.Job = j.id
		if !c.draining {
			resp.Tasks = c.grantLocked(j, worker, max, id == "", requestID(ctx))
		}
	}
	if id != "" {
		resp.Complete = j.completeLocked()
	} else {
		resp.Complete = c.allCompleteLocked()
	}
	if len(resp.Tasks) == 0 {
		// An empty grant is still a sign of life.
		c.touchWorker(worker, c.now())
	}
	return resp, nil
}

// allCompleteLocked reports whether at least one job exists and every
// job is complete (tasks done, audits settled).
func (c *Coordinator) allCompleteLocked() bool {
	if len(c.jobs) == 0 {
		return false
	}
	for _, j := range c.jobs {
		if !j.completeLocked() {
			return false
		}
	}
	return true
}

// Heartbeat extends worker's leases and reports the ones it no longer
// holds.
func (c *Coordinator) Heartbeat(ctx context.Context, id string, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	if c.quarantined[req.Worker] {
		return HeartbeatResponse{}, fmt.Errorf("%w: %s", errQuarantined, req.Worker)
	}
	c.expireLocked(j)
	c.touchWorker(req.Worker, c.now())
	deadline := c.now().Add(c.opts.leaseTTL())
	var resp HeartbeatResponse
	for _, tid := range req.Tasks {
		// Whichever kind of lease the worker holds on the task — primary,
		// hedge or audit re-check — a heartbeat keeps it alive.
		st := j.task(tid)
		switch {
		case st == nil:
			resp.Lost = append(resp.Lost, tid)
			continue
		case st.status == taskLeased && st.worker == req.Worker:
			st.deadline = deadline
		case st.status == taskLeased && st.hedgeWorker == req.Worker:
			st.hedgeDeadline = deadline
		case st.audit != nil && req.Worker != "" && st.audit.auditor == req.Worker:
			st.audit.deadline = deadline
		default:
			resp.Lost = append(resp.Lost, tid)
			continue
		}
		resp.Renewed = append(resp.Renewed, tid)
	}
	return resp, nil
}

// Ingest records one uploaded result: IngestResults of a one-entry body.
func (c *Coordinator) Ingest(ctx context.Context, id string, up ResultUpload) (ResultAck, error) {
	acks, err := c.IngestResults(ctx, id, ResultsUpload{Worker: up.Worker,
		Results: []TaskResult{{Task: up.Task, Values: up.Values, ElapsedMS: up.ElapsedMS}}})
	if err != nil {
		return ResultAck{}, err
	}
	return acks[0], nil
}

// IngestResults records one upload body and acks each of its entries. It
// is idempotent per task: a duplicate of a done task is acknowledged and
// dropped (task determinism makes the values equivalent), and an upload
// from a worker whose lease expired is still accepted if it arrives
// first. A malformed body — no entries, an unknown task, a wrong value
// count — or a quarantined worker is refused before anything is recorded.
// The body's not-yet-done tasks are checkpointed with one manifest append
// before any is marked done, so an acknowledged result is always durable
// — and the append runs outside the coordinator lock, so leases,
// heartbeats and progress are never stalled behind an fsync; if it fails,
// nothing is marked done and the tasks stay leased. A second upload
// racing a journalling first one is told to move on without waiting for
// durability; if the first write then fails, the task simply re-queues
// and re-runs.
func (c *Coordinator) IngestResults(ctx context.Context, id string, up ResultsUpload) ([]ResultAck, error) {
	worker, results := up.Worker, up.Results
	c.mu.Lock()
	j, err := c.getJob(id)
	if err == nil && c.quarantined[worker] {
		err = fmt.Errorf("%w: %s", errQuarantined, worker)
	}
	if err == nil && len(results) == 0 {
		err = errors.New("grid: upload carries no results")
	}
	for i := 0; err == nil && i < len(results); i++ {
		r := results[i]
		if st := j.task(r.Task); st == nil {
			err = fmt.Errorf("%w %q in job %s", errUnknownTask, r.Task, id)
		} else if len(r.Values) != st.task.Hi-st.task.Lo {
			err = fmt.Errorf("grid: task %s upload has %d values, want %d", r.Task, len(r.Values), st.task.Hi-st.task.Lo)
		}
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	var (
		acks  = make([]ResultAck, 0, len(results))
		fresh []*taskState // tasks to journal; recs are their manifest records
		recs  []job.Result
		now   = c.now()
	)
	for _, r := range results {
		st := j.task(r.Task)
		ack := ResultAck{Accepted: true}
		switch {
		case st.status == taskDone && c.auditEnabled():
			// Under the audit regime a second upload for a done task is
			// evidence, not noise: it either verifies the record or opens a
			// dispute. A quarantine verdict lands, re-queues and all, before
			// the entries after it are classified, exactly as it would
			// between two uploads.
			ack = c.auditIngestLocked(j, st, ResultUpload{worker, r.Task, r.Values, r.ElapsedMS})
		case st.status == taskDone || st.recording:
			c.metrics.duplicates.Inc()
			c.touchWorker(worker, now)
			ack.Duplicate = true
		default:
			st.recording = true
			fresh = append(fresh, st)
			recs = append(recs, job.Result{Task: st.task, Values: r.Values, Elapsed: time.Duration(r.ElapsedMS) * time.Millisecond})
		}
		acks = append(acks, ack)
	}
	cp := j.cp
	c.mu.Unlock()
	if len(fresh) == 0 {
		return acks, nil
	}

	recErr := recordTasks(cp, recs)

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range fresh {
		st.recording = false
	}
	if recErr != nil {
		c.checkDrainedLocked()
		return nil, recErr
	}
	walRecs := make([]walRecord, len(fresh))
	for i, st := range fresh {
		if st.status == taskLeased && !st.leasedAt.IsZero() && now.After(st.leasedAt) {
			c.metrics.leaseLatency.Observe(now.Sub(st.leasedAt).Seconds())
		}
		// The value goes on the task; the record says whose it is.
		st.values = recs[i].Values
		c.metrics.valuesIngested.Add(float64(len(st.values)))
		walRecs[i] = walRecord{T: walIngest, Job: j.id, Task: st.id, Worker: worker, ElapsedMS: recs[i].Elapsed.Milliseconds()}
	}
	c.metrics.tasksIngested.Add(float64(len(fresh)))
	c.commit(j, now, walRecs, requestID(ctx), "ingested",
		"job", j.id, "worker", worker, "tasks", len(fresh), "body", len(results))
	for _, st := range fresh {
		if st.audit != nil {
			// Selected tasks feed the cache only once audit-verified.
			c.metrics.auditsOpened.Inc()
		} else {
			c.feedCacheLocked(j, st.task, st.values)
		}
	}
	return acks, nil
}

// --- Drain ---

// Drain switches the coordinator into drain mode: lease calls stop
// granting tasks (workers are told to exit), and once every in-flight
// lease settles — its result uploads, or its TTL expires — the channel
// from Drained closes. Serve exits cleanly at that point, which is the
// graceful-restart story: POST /v1/drain (or SIGTERM in dsa-grid),
// wait, restart on the same checkpoint dir, nothing is lost.
func (c *Coordinator) Drain(ctx context.Context) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return
	}
	c.draining = true
	for _, j := range c.jobs {
		c.wakeLocked(j)
	}
	c.log.Info("draining: no new leases", "rid", requestID(ctx), "tasks", c.inflightLocked())
	c.checkDrainedLocked()
	c.mu.Unlock()
	go c.drainLoop()
}

// Draining reports whether Drain has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Drained returns a channel that closes once a drain has fully
// settled (it never closes if Drain is never called).
func (c *Coordinator) Drained() <-chan struct{} { return c.drainDone }

// inflightLocked counts what a drain waits for: tasks on lease, and
// tasks whose manifest append is running.
func (c *Coordinator) inflightLocked() (n int) {
	for _, j := range c.jobs {
		for _, st := range j.tasks {
			if st.status == taskLeased || st.recording {
				n++
			}
		}
	}
	return n
}

// checkDrainedLocked closes the drain-complete channel once draining
// and nothing is in flight anywhere.
func (c *Coordinator) checkDrainedLocked() {
	if !c.draining || c.drainClosed || c.inflightLocked() > 0 {
		return
	}
	c.drainClosed = true
	close(c.drainDone)
	c.log.Info("drained: all in-flight work settled")
}

// drainLoop ticks lease expiry while draining, so the drain completes
// even if every lease holder vanished and nothing else touches the
// state. It reads the injectable clock for expiry decisions but paces
// itself on wall time.
func (c *Coordinator) drainLoop() {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-c.drainDone:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		c.expireAllLocked()
		c.checkDrainedLocked()
		c.mu.Unlock()
	}
}
