package grid

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dsa"
	"repro/internal/gridobs"
	"repro/internal/job"
)

// DefaultLeaseTTL is the CoordinatorOptions.LeaseTTL zero value's meaning.
const DefaultLeaseTTL = 30 * time.Second

// Linger is how long a coordinator serving one job keeps its API up
// after the job completes. Idle workers hear it complete at once, on a
// held lease call or their last upload's ack; Linger is for the rest —
// a worker still computing a moved lease, a client fetching the
// assembled scores — to be answered before the server goes away.
const Linger = 2 * time.Second

// DefaultMaxBody caps request bodies, rejected with 413 before any
// decoding; a result upload for a huge task fits comfortably, a runaway
// or hostile body does not. Only this package's tests override it (the
// unexported CoordinatorOptions.maxBody).
const DefaultMaxBody = 64 << 20

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Dir is the checkpoint root; each job journals into Dir/<job-id>
	// in the internal/job checkpoint format — its values and, beside
	// them, its scheduler records, in one file — so a restarted
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

	// AuditRate is the fraction (0..1) of completed tasks silently
	// re-leased to a different worker for byte-exact verification (see
	// audit.go). Selection is a deterministic hash of (job, task), so
	// restarts re-arm exactly the audits that were open. 0 disables
	// auditing; with auditing on, the score cache is fed only by
	// audit-verified values for the selected tasks.
	AuditRate float64

	maxBody int64 // 0 = DefaultMaxBody
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
	traces  *traceCollector // collected worker journals

	mu      sync.Mutex
	jobs    map[string]*gridJob
	workers map[string]*workerStats
	// quarantined workers get 429 on every lease, heartbeat and
	// upload; membership survives restarts via the quarantine journal.
	quarantined map[string]bool
	// wal is the quarantine journal (nil without Dir, or after an open
	// failure — the grid then runs, loudly, without crash recovery).
	wal *wal
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

	// A held lease call (leaseHeld) waits on hold, holdFor unless a test
	// injects it beside now. One without a job waits on changed, fired by
	// every job's state change, a new job, a drain and Close, which sets
	// closed.
	hold    func(ctx context.Context, wake <-chan struct{}, d time.Duration) bool
	changed signal
	closed  bool
}

// signal is a channel closed on the next change: made when someone waits
// on it, so a change nobody waits for costs nothing.
type signal struct{ ch chan struct{} }

// wait is the channel the next fire closes.
func (s *signal) wait() <-chan struct{} {
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

func (s *signal) fire() {
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
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
	task   job.Task
	idx    int // position in gridJob.tasks, the task's in Spec.Tasks
	status taskStatus
	// The task's one lease, read by status: a pending task has none
	// (worker ""), a leased task's holder computes it, a done task's
	// holder re-checks it for its open audit. A hedge moves a leased
	// task's lease to another worker.
	worker    string
	deadline  time.Time
	leasedAt  time.Time // when worker got it: the straggler clock and the lease-latency histogram
	recording bool      // the task's value line is written and not yet durable: nothing else is journalled about it

	// While done: the recorded value (the job's file holds the durable
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
	// tasks is the task table in job.Spec.Tasks order (chunk-major) — the
	// grant order, and the order of every scan; x finds a task by name.
	tasks     []*taskState
	x         job.TaskIndex
	group     int             // tasks per chunk: the domain's measure count
	cp        *job.Checkpoint // the job's file; nil without a checkpoint dir
	pending   int             // tasks with status taskPending
	done      int
	audits    int       // open audits (setAudit); gates completion
	requeues  int       // leases of any kind that ended without a result, this process
	restored  int       // tasks restored from checkpoint at registration
	startedAt time.Time // first lease grant; anchors the ETA estimate
	// leasesGranted counts grants this process made — tasks and audits
	// handed out, re-leases included, moves not — the fair scheduler's
	// deficit measure.
	leasesGranted int
	scores        *dsa.Scores // assembled once complete
	scoresErr     error
	changed       signal // fired on every state change

	// next is the grant cursor: no task of tasks[:next] is pending, so a
	// grant scans from here, not from 0 (requeue moves it back).
	// scanned counts the tasks grants have looked at: over a job's life,
	// its tasks plus what re-queues made them look at again.
	next, scanned int
	// oldestLease is the oldest lease a full straggler scan saw (zero:
	// none yet). Later leases and moves start later on the same clock.
	oldestLease time.Time
	// expireAt bounds the next lapse from below: the earliest deadline and
	// arbitration give-up the last full expiry walk saw, or a TTL past that
	// walk. Every deadline set later is a TTL or more past it.
	expireAt time.Time

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
		hold:        holdFor,
	}
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
			// A quarantine stands from now on; what it did to a job is in
			// that job's file. Each is logged again: a crash between
			// commit's fsync and settle's record leaves the journal as
			// the verdict's only trace. An older coordinator's job records
			// are not replayed: such a job restores from its manifests
			// alone.
			c.wal = w
			legacy := 0
			for _, r := range recs {
				if r.T == walQuarantine {
					c.apply(nil, r, c.now())
					c.log.Info("worker QUARANTINED", "worker", r.Worker, "replayed", true)
				} else {
					legacy++
				}
			}
			if len(recs) > legacy || skipped > 0 {
				c.log.Info("WAL replayed", "records", len(recs)-legacy, "skipped", skipped)
			}
			if legacy > 0 {
				c.log.Warn("WAL holds job records of an older coordinator, not replayed: their jobs restore from their manifests", "records", legacy)
			}
			c.metrics.walReplayed.Set(float64(len(recs) - legacy))
			c.metrics.walSkipped.Set(float64(skipped))
			c.metrics.walReplaySecs.Set(replaySecs)
			c.metrics.quarantines.Add(float64(len(c.quarantined)))
		}
	}
	return c
}

// journal appends a decision's lines as one write: to j's file its value
// lines and tombstones, then its scheduler records, durably if asked; with
// j nil a quarantine verdict to the quarantine journal, durably.
func (c *Coordinator) journal(j *gridJob, results []job.Result, recs []walRecord, durable bool) error {
	switch {
	case j == nil && c.wal != nil:
		err := c.wal.append(recs...)
		if err == nil {
			c.metrics.walRecords.Add(float64(len(recs)))
		}
		return err
	case j == nil || j.cp == nil:
		return nil
	}
	var buf []byte
	for _, r := range results {
		buf = job.AppendLine(buf, r)
	}
	for _, r := range recs {
		buf = appendWALLine(buf, r)
	}
	return appendJob(j.cp, buf, durable)
}

// appendJob appends lines to a job's file. A panicking write comes back
// as an error: it must not leak the lock or recording=true and strand the
// tasks (the HTTP handler would otherwise swallow the panic).
func appendJob(cp *job.Checkpoint, lines []byte, durable bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grid: job checkpoint write panicked: %v", r)
		}
	}()
	return cp.Append(lines, durable)
}

// commit is the one place a decision becomes state. The live paths look
// at the task table, decide and build its lines — value lines and
// tombstones (results), scheduler records (recs) — and commit journals
// them as one fsynced write (each is a value, a tombstone or a verdict:
// not to be re-litigated after a power loss) and settles them. With j nil
// recs is a quarantine verdict. A failed journal is logged, not fatal: it
// degrades a future restart, not the run.
func (c *Coordinator) commit(j *gridJob, now time.Time, results []job.Result, recs []walRecord, rid, msg string, attrs ...any) {
	if err := c.journal(j, results, recs, true); err != nil {
		c.log.Error("journal append failed", "err", err)
	}
	c.settle(j, now, results, recs, rid, msg, attrs...)
}

// settle passes journalled lines through their transitions in written
// order — results, then recs — bumps the counters that restate a record
// type, logs the event (msg "" logs nothing; rid ties it to its request),
// and wakes and drain-checks what they may have completed.
func (c *Coordinator) settle(j *gridJob, now time.Time, results []job.Result, recs []walRecord, rid, msg string, attrs ...any) {
	for _, r := range results {
		c.applyResult(j, j.tasks[j.x.Of(r.Task)], r, now)
	}
	for _, r := range recs {
		c.apply(j, r, now)
		switch r.T {
		case walVerify:
			c.metrics.auditsPassed.Inc()
		case walQuarantine:
			c.metrics.quarantines.Inc()
		}
	}
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
		c.wakeLocked(nil)
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

// AddJob registers a sweep. Adding a spec that is already registered
// returns the existing job's ID and writes nothing. With a checkpoint dir
// configured, completed tasks are restored from disk before any lease is
// granted.
func (c *Coordinator) AddJob(spec job.Spec) (string, error) {
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
	j, err := c.registerLocked(id, spec, specRaw)
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

// registerLocked adds the job, restored from its file; for one already
// registered it returns nil.
func (c *Coordinator) registerLocked(id string, spec job.Spec, specRaw []byte) (*gridJob, error) {
	if _, ok := c.jobs[id]; ok {
		return nil, nil
	}
	now := c.now()
	x := job.NewTaskIndex(spec)
	j := &gridJob{
		id:      id,
		spec:    spec,
		specRaw: specRaw,
		tasks:   make([]*taskState, len(x.Tasks())),
		x:       x,
		group:   len(spec.Domain.Measures()),
	}
	slab := make([]taskState, len(j.tasks))
	for i, t := range x.Tasks() {
		slab[i] = taskState{task: t, idx: i}
		j.tasks[i] = &slab[i]
	}
	j.pending = len(j.tasks)
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
	// Replay: the job's file, read once, line by line through the live
	// transitions — a value line is an ingest by its worker, a tombstone
	// an invalidation, a scheduler line its own transition. An older
	// coordinator's lease and priority lines are counted and skipped:
	// every task not done starts pending, every job has an equal share.
	replayed, retired := 0, 0
	if c.opts.Dir != "" {
		cp, err := job.OpenCheckpoint(filepath.Join(c.opts.Dir, id), spec, func(line []byte, i int, r job.Result, ok bool) {
			if ok {
				c.applyResult(j, j.tasks[i], r, now)
			} else if rec, ok := decodeWALLine(line); !ok || rec.T == walQuarantine {
				return
			} else if retiredRecord(rec.T) {
				retired++
				return
			} else {
				c.apply(j, rec, now)
			}
			replayed++
		})
		if err != nil {
			return nil, err
		}
		if retired > 0 {
			c.log.Warn("job file holds scheduler records of an older coordinator (leases, priorities), skipped: its unfinished tasks start pending", "job", id, "records", retired)
		}
		j.cp = cp
		c.restoreLocked(j, cp.Values(), now)
	}
	j.restored = j.done
	// A restored job's own results never complete its own tasks, but
	// they must still trigger a scan of *this* job against what other
	// jobs cached before it arrived.
	j.absorbedEpoch = 0
	c.wakeLocked(j)
	c.jobs[id] = j
	c.log.Info("job registered", "job", id, "tasks", len(j.tasks), "restored", j.restored,
		"replayed", replayed)
	return j, nil
}

// restoreLocked finishes a registration once the job's file has replayed,
// by two rules. (a) A value only another manifest in the directory holds
// (a local shard's) is adopted as a value line from nobody, so what is
// written about the task from here on replays against it done. (b) Every
// standing quarantine is applied to the job by the live code, which also
// finishes one whose revocations or tombstones a crash cut off. Then the
// cache is fed with what stands and no audit holds back: replay re-opened
// every audit the live process had open.
func (c *Coordinator) restoreLocked(j *gridJob, restored [][]float64, now time.Time) {
	var adopted []job.Result
	for _, st := range j.tasks {
		// Neither done nor tainted: the job's file never held its value.
		if v := restored[st.idx]; v != nil && st.status != taskDone && !st.tainted {
			adopted = append(adopted, job.Result{Task: st.task, Values: v})
		}
	}
	if len(adopted) > 0 {
		c.commit(j, now, adopted, nil, "", "")
	}
	quarantined := make([]string, 0, len(c.quarantined))
	for name := range c.quarantined {
		quarantined = append(quarantined, name)
	}
	sort.Strings(quarantined)
	for _, name := range quarantined {
		c.voidLocked(j, name, now)
	}
	for _, st := range j.tasks {
		// With auditing on, selected values feed only once verified.
		if st.status == taskDone && st.audit == nil {
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

// collectCacheHitsLocked scans j's not-yet-done tasks against the
// cache and claims every full hit (recording=true, exactly like an
// in-flight ingest, so no lease/upload/second scan races it), returning
// each hit's task and value line. The scan is memory-speed (key hashing +
// map lookups, no I/O) and is skipped entirely unless the cache gained
// foreign entries since this job last looked (see cacheEpoch).
func (c *Coordinator) collectCacheHitsLocked(j *gridJob) (sts []*taskState, hits []job.Result) {
	if c.opts.Cache == nil || j.keyer == nil || j.absorbedEpoch == c.cacheEpoch {
		return nil, nil
	}
	j.absorbedEpoch = c.cacheEpoch
	if j.done == len(j.tasks) {
		return nil, nil
	}
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
			sts = append(sts, st)
			hits = append(hits, job.Result{Task: t, Values: vals})
		}
	}
	return sts, hits
}

// absorbCache serves every task of j whose per-point scores the cache
// already holds — value lines from nobody, recorded like an uploaded
// result (recordLocked), so cache-served and worker-computed values are
// indistinguishable on disk and in the results (determinism makes them
// identical by construction) — without the fsync stalling every other
// worker's leases and heartbeats behind a large absorbed job.
func (c *Coordinator) absorbCache(j *gridJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sts, hits := c.collectCacheHitsLocked(j)
	if len(hits) == 0 {
		return
	}
	if err := c.recordLocked(j, sts, hits); err != nil {
		// The tasks stay pending — back behind the grant cursor, which
		// passed them while they were recording: workers will compute and
		// upload them, taking the normal ingest error path.
		for _, st := range sts {
			j.next = min(j.next, st.idx)
		}
		c.log.Error("cache absorption failed to journal", "job", j.id, "tasks", len(hits), "err", err)
		return
	}
	j.cacheServed += len(hits)
	c.metrics.cacheServed.Add(float64(len(hits)))
	audits := j.audits
	c.settle(j, c.now(), hits, nil, "", "tasks served from the score cache", "job", j.id, "tasks", len(hits))
	c.metrics.auditsOpened.Add(float64(j.audits - audits)) // under auditing a served value is selected like any
}

// recordLocked makes results — value lines of sts, which the caller
// marked recording — durable in j's file before they are settled: written
// under the lock, which fixes their place in the file, and fsynced
// outside it, so leases and heartbeats never wait on the disk. Called
// and returns with c.mu held, sts no longer recording; on an error the
// tasks stand as they did.
func (c *Coordinator) recordLocked(j *gridJob, sts []*taskState, results []job.Result) error {
	err := c.journal(j, results, nil, false)
	if cp := j.cp; err == nil && cp != nil {
		c.mu.Unlock()
		err = appendJob(cp, nil, true)
		c.mu.Lock()
	}
	for _, st := range sts {
		st.recording = false
	}
	if err != nil {
		c.checkDrainedLocked()
	}
	return err
}

// Close releases every job's file and the quarantine journal, and answers
// every held lease call.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.changed.fire()
	for _, j := range c.jobs {
		j.changed.fire()
	}
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
	// errNoWorker refuses a lease, heartbeat or upload that names no
	// worker: a lease needs a holder, and an audit a producer to check.
	errNoWorker = errors.New("grid: request names no worker")
)

func (c *Coordinator) getJob(id string) (*gridJob, error) {
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownJob, id)
	}
	return j, nil
}

// expireLocked ends every lease of j whose deadline has passed — a
// computation or an audit re-check — scoring the expiry against the
// worker that went silent, and re-queues the task of an arbitration that
// ran out of road (no third worker arrived, or the one that did hung).
// Tasks are walked in grant order; a lease whose result is being
// journalled does not lapse. Expiry is lazy: it runs at the top of every
// API call that looks at task state, which is the only time staleness
// could matter (plus the drain loop's ticks), and walks the table only
// once j.expireAt has passed.
func (c *Coordinator) expireLocked(j *gridJob) {
	now := c.now()
	if !now.After(j.expireAt) {
		return
	}
	j.expireAt = now.Add(c.opts.leaseTTL())
	var lapsed, splits []*taskState
	for _, st := range j.tasks {
		if st.worker != "" && !st.recording && st.deadline.Before(now) {
			lapsed = append(lapsed, st)
		} else if st.worker != "" && st.deadline.Before(j.expireAt) {
			j.expireAt = st.deadline
		}
		if ast := st.audit; ast != nil && ast.second != "" {
			if ast.giveUpAt.Before(now) {
				splits = append(splits, st)
			} else if ast.giveUpAt.Before(j.expireAt) {
				j.expireAt = ast.giveUpAt
			}
		}
	}
	c.endLeasesLocked(j, lapsed, now, "leases expired, tasks re-queued")
	for _, st := range splits {
		// Unresolvable split (e.g. both claimants quarantine-proof in a
		// 2-worker grid, or the one arbitrator left hung, its re-check
		// held): discard both claims and re-run.
		c.log.Info("audit split unresolved, re-queueing", "job", j.id, "task", st.task.ID(),
			"original", st.audit.original, "second", st.audit.second)
		c.invalidateTaskLocked(j, st)
	}
}

// endLeasesLocked ends the leases of sts without a result (endLease), in
// order, logging msg once per holder.
func (c *Coordinator) endLeasesLocked(j *gridJob, sts []*taskState, now time.Time, msg string) {
	if len(sts) == 0 {
		return
	}
	c.logHolders(sts, msg, "job", j.id)
	for _, st := range sts {
		c.endLease(j, st, now)
	}
	c.metrics.requeues.Add(float64(len(sts)))
	c.settle(j, now, nil, nil, "", "")
}

// logHolders logs msg once per worker holding a lease of sts, first
// holder first, naming it and how many of them it holds: who lost the
// leases a move or an expiry ends.
func (c *Coordinator) logHolders(sts []*taskState, msg string, attrs ...any) {
	var holders []string
	held := map[string]int{}
	for _, st := range sts {
		if held[st.worker]++; held[st.worker] == 1 {
			holders = append(holders, st.worker)
		}
	}
	for _, h := range holders {
		c.log.Info(msg, append(slices.Clip(attrs), "worker", h, "tasks", held[h])...)
	}
}

// expireAllLocked runs the lazy expiry over every job.
func (c *Coordinator) expireAllLocked() {
	for _, j := range c.jobsLocked() {
		c.expireLocked(j)
	}
}

// wakeLocked tells whoever waits on j that its state changed, and every
// held lease call without a job that some job's did (j nil: that alone).
// If the change was j's last task done or its last audit settled, the
// scores are assembled first — once per completion; an invalidation
// (quarantine) clears the result and reopens it.
func (c *Coordinator) wakeLocked(j *gridJob) {
	c.changed.fire()
	if j == nil {
		return
	}
	if j.completeLocked() && j.scores == nil && j.scoresErr == nil {
		done := make([][]float64, len(j.tasks))
		for i, st := range j.tasks {
			done[i] = st.values
		}
		j.scores, j.scoresErr = j.x.Scores(done)
		if j.scoresErr != nil {
			c.log.Error("job assembly failed", "job", j.id, "err", j.scoresErr)
		} else {
			c.log.Info("job complete", "job", j.id, "tasks", len(j.tasks), "requeues", j.requeues)
		}
	}
	j.changed.fire()
}

// grantLocked hands out up to leaseSizeLocked tasks of j to worker, most
// (> 0) capping them. Grant order: audit re-leases (a few re-checks catch
// a liar before it poisons more), then pending tasks, then — with
// capacity to spare — straggling leases moved from their holders.
// A grant changes memory only. fair says the scheduler picked j (the log
// record then shows its share); rid ties the records to the lease
// request.
func (c *Coordinator) grantLocked(j *gridJob, worker string, most int, fair bool, rid string) []LeaseTask {
	now, ttl := c.now(), c.opts.leaseTTL()
	pending, live := j.pending, c.liveWorkersLocked(worker, now)
	size := c.leaseSizeLocked(j, worker, most, live)
	var granted []*taskState
	if j.audits > 0 {
		for _, st := range j.tasks {
			if len(granted) == size {
				break
			}
			if st.worker == "" && auditGrantable(st, worker, now) {
				granted = append(granted, st)
			}
		}
	}
	for ; j.next < len(j.tasks) && len(granted) < size; j.next++ {
		j.scanned++
		if st := j.tasks[j.next]; st.status == taskPending && !st.recording {
			granted = append(granted, st)
		}
	}
	moved := c.stragglersLocked(j, worker, size-len(granted), now)
	if len(granted)+len(moved) == 0 {
		return nil
	}
	// A move stays out of the fair-share deficit: insurance the scheduler
	// buys, not demand the job generated.
	j.leasesGranted += len(granted)
	attrs := []any{"job", j.id, "worker", worker, "tasks", len(granted) + len(moved), "pending", pending, "live", live}
	if fair {
		attrs = append(attrs, "fair_share", j.leasesGranted)
	}
	c.logHolders(moved, "lease moved", "rid", rid, "job", j.id, "to", worker)
	var tasks []LeaseTask
	for _, st := range slices.Concat(granted, moved) {
		c.grantLease(j, st, worker, now)
		tasks = append(tasks, LeaseTask{Task: st.task.ID(), Measure: st.task.Measure, Lo: st.task.Lo, Hi: st.task.Hi, TTLMS: ttl.Milliseconds()})
	}
	c.metrics.leasesGranted.Add(float64(len(granted)))
	c.metrics.leaseHedged.Add(float64(len(moved)))
	c.settle(j, now, nil, nil, rid, "leased", attrs...)
	if j.startedAt.IsZero() {
		j.startedAt = now
	}
	return tasks
}

// Lease grants worker up to max tasks of one job: job id, or with id ""
// whichever the fair scheduler picks — the eligible job with the fewest
// grants (pickJobLocked). What the cache already knows is served before
// anything is handed out (overlapping jobs ingested since the last scan
// may have made whole pending tasks free, and an absorbed job may
// complete without ever dispatching work); the quarantined are refused;
// while the coordinator drains no tasks are granted and the response
// says so.
func (c *Coordinator) Lease(ctx context.Context, id, worker string, max int) (LeaseResponse, error) {
	if worker == "" {
		return LeaseResponse{}, errNoWorker
	}
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
	if req.Worker == "" {
		return HeartbeatResponse{}, errNoWorker
	}
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
		// Whether the lease computes the task or re-checks it, a heartbeat
		// from its holder keeps it alive.
		if st := j.task(tid); st != nil && st.worker == req.Worker {
			st.deadline = deadline
			resp.Renewed = append(resp.Renewed, tid)
		} else {
			resp.Lost = append(resp.Lost, tid)
		}
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
// first. A malformed body — no worker, no entries, an unknown task, a
// wrong value count — or a quarantined worker is refused before anything
// is recorded.
// The body's not-yet-done tasks are recorded with one append of their
// value lines — the ingest — which is durable before any is marked done,
// so an acknowledged result is always durable, and whose fsync runs
// outside the coordinator lock (recordLocked); if it fails, nothing is
// marked done and the tasks stay leased. A second upload racing a
// journalling first one is told to move on without waiting for
// durability; if the first write then fails, the task simply re-queues
// and re-runs.
func (c *Coordinator) IngestResults(ctx context.Context, id string, up ResultsUpload) ([]ResultAck, error) {
	worker, results := up.Worker, up.Results
	c.mu.Lock()
	defer c.mu.Unlock()
	j, err := c.getJob(id)
	if err == nil && worker == "" {
		err = errNoWorker
	}
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
		return nil, err
	}
	var (
		acks  = make([]ResultAck, 0, len(results))
		fresh []*taskState // tasks to record; lines are their value lines
		lines []job.Result
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
			lines = append(lines, job.Result{Task: st.task, Values: r.Values, Elapsed: time.Duration(r.ElapsedMS) * time.Millisecond, Worker: worker})
		}
		acks = append(acks, ack)
	}
	if len(fresh) == 0 {
		return acks, nil
	}
	if err := c.recordLocked(j, fresh, lines); err != nil {
		return nil, err
	}
	for _, st := range fresh {
		if st.status == taskLeased && !st.leasedAt.IsZero() && now.After(st.leasedAt) {
			c.metrics.leaseLatency.Observe(now.Sub(st.leasedAt).Seconds())
		}
		c.metrics.valuesIngested.Add(float64(st.task.Hi - st.task.Lo))
	}
	c.metrics.tasksIngested.Add(float64(len(fresh)))
	c.settle(j, now, lines, nil, requestID(ctx), "ingested",
		"job", j.id, "worker", worker, "tasks", len(fresh), "body", len(results))
	if c.quarantined[worker] {
		// The verdict landed while the lines were in flight.
		c.voidLocked(j, worker, c.now())
	}
	for _, st := range fresh {
		switch {
		case st.status != taskDone:
		case st.audit != nil:
			// Selected tasks feed the cache only once audit-verified.
			c.metrics.auditsOpened.Inc()
		default:
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
	c.wakeLocked(nil)
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
