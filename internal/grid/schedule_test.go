package grid

// FuzzSchedule holds the grid to its promise — whatever crash, retry,
// hedge or lying-worker schedule it lives through, every job ends in a CSV
// byte-identical to job.Run — over every schedule an input can spell, not
// over a list of handled cases. Each input byte is one step of a small
// world: a coordinator with a checkpoint directory, one to three tiny
// gossip jobs and two to five workers, all on one goroutine under a
// virtual clock, every request through the real client (call) and handler.
// The workers are Work's own decisions (workCore), driven by the world in
// Work's place: a step hands one worker its next due event — an answer, a
// finished compute unit, a timer — and the world carries out what it
// decides. The coordinator's invariants are stated once, below, each a plain
// function of the world, checked where it can be observed — after every
// step, at every restart, at the end — and named when it fails.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/linelog"
)

const scheduleTTL = time.Minute

// scheduleRef is one job a world may run, with what job.Run makes of it.
type scheduleRef struct {
	spec   job.Spec
	raw    json.RawMessage // job.EncodeSpec, for POST /v1/jobs
	tasks  []job.Task
	values map[string][]float64 // per task, as every honest worker computes it
	csv    string
}

// scheduleRefs are the world's jobs — 8, 12 and 4 tasks of 2, 1 and 3
// values — computed once per process; they cannot fail but by a broken
// domain.
var scheduleRefs = sync.OnceValue(func() (refs []scheduleRef) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	ctx, all := context.Background(), gossip.Domain().Space().Enumerate()
	for _, s := range []struct {
		lo, hi, chunk int
		seed          int64
	}{{0, 8, 2, 7}, {8, 14, 1, 99}, {14, 20, 3, 5}} {
		cfg := tinyGossipCfg()
		cfg.Seed = s.seed
		spec := job.Spec{Domain: gossip.Domain(), Points: all[s.lo:s.hi], Cfg: cfg, Chunk: s.chunk}
		ref := scheduleRef{spec: spec, tasks: spec.Tasks(), values: map[string][]float64{}}
		var err error
		ref.raw, err = job.EncodeSpec(spec)
		must(err)
		must(job.ExecTasks(ctx, spec, ref.tasks, job.ExecOptions{Workers: 1}, func(t job.Task, vals []float64, _ time.Duration) error {
			ref.values[t.ID()] = vals
			return nil
		}))
		scores, err := job.Run(ctx, spec.Domain, spec.Points, spec.Cfg, job.Options{Chunk: spec.Chunk})
		must(err)
		var buf bytes.Buffer
		must(dsa.WriteCSV(&buf, spec.Domain, scores))
		ref.csv = buf.String()
		refs = append(refs, ref)
	}
	return refs
})

// Worker kinds. A liar is Work's core with WorkerOptions.Corrupt sending
// every value off by one; a silent worker is the core with every action
// after its first lease dropped; a hung worker is the core whose compute
// never ends: it heartbeats what it holds and never uploads, to the end.
const (
	kindHonest = iota
	kindLiar
	kindSilent
	kindHung
)

// simWorker is one worker of the world: Work's decisions (workCore), with
// the world carrying out their actions in Work's place.
type simWorker struct {
	name   string
	kind   int
	banned bool // quarantined by the operator
	bind   int  // the job it serves, -1 for every job
	opts   WorkerOptions
	io     *workerIO
	core   *workCore  // nil until a step starts it; a fresh one after it exits
	queue  []workMsg  // answers, held until a step delivers them
	units  []job.Task // its batch still computing, a task a unit (gossip scores a measure a call)
	jx     int        // the batch's job
	wake   time.Time
	leases int // leases sent: after its first, a silent worker is heard from no more
}

// Network faults: the next step's requests are dropped before the handler,
// or their answers lost after it — on the first attempt only, so the
// client's retry, a duplicate, goes through — or refused with a 400, or
// dropped on every attempt (the coordinator is unreachable).
const (
	faultDrop = 1 + iota
	faultLose
	faultRefuse
	faultDown
)

type fileWrite struct {
	rel  string // under the world's directory
	off  int64
	data []byte
}

type world struct {
	t     testing.TB
	steps []byte
	step  int  // the step being taken; len(steps) while finishing
	split bool // send every body as one-entry bodies (invariant 10)

	opts    CoordinatorOptions
	refs    []scheduleRef
	ids     []string
	workers []*simWorker

	clock  atomic.Int64 // virtual time, Unix nanoseconds
	dir    string
	c      *Coordinator
	h      http.Handler
	client *http.Client
	fault  int
	writes []fileWrite // this life's appends to the jobs' files and the quarantine journal, in order
	parsed int         // writes already scanned for verify records
	unseam func()

	// What the invariants judge besides the coordinator's own state.
	lastLive    string          // the dead coordinator's projection (2)
	granted     map[string]int  // per job, the grants this coordinator answered (7)
	cut         bool            // the last restart's files were cut inside an append (2)
	everCut     bool            // (10)
	fairOnly    bool            // every grant so far was a single task of the scheduler's pick, none a hedge (7)
	selfGrant   map[string]bool // job/task/worker: a producer handed its own re-check (6)
	vouched     []bool          // per job: the liar verified its own lie, holding its re-check (4)
	standingLie bool            // a lie stood undisputed when the faults stopped (5)
	acks        []string        // every upload entry's verdict, in stream order (10)
	twin        *world          // the same input, run before (9, 10)
	files       string          // the final quarantine journal and job files (9)
	outcome     string          // the acks and the final projection, scheduler records, restore and CSVs (10)
}

// newWorld reads the header — three bytes and one per worker, zero if
// missing — and keeps the rest as steps. Byte 0: AuditRate 0 or 1 (bit 0),
// 1–3 jobs (bits 2-3), 2–5 workers (bits 4-5); bit 1 is not read. Byte 1: the
// kind of workers 1.. (two bits each: 1 hung, 2 a liar — one at most —, 3
// silent, else honest; worker 0 is always honest). Byte 2 is not read. A
// worker's byte: its TasksPerLease leaseSizes[b&7%5],
// and with bits 3-4 set to j > 0 it serves job (j-1)%jobs alone — worker
// 0 always serves every job, so an honest worker can finish them all.
func newWorld(t testing.TB, in []byte, split bool) *world {
	refs := scheduleRefs()
	h0 := byte(0)
	if len(in) > 0 {
		h0 = in[0]
	}
	size := 3 + 2 + int(h0>>4&3)
	hdr := append(slices.Clone(in[:min(size, len(in))]), make([]byte, size)...)
	w := &world{t: t, steps: in[min(size, len(in)):], split: split, fairOnly: true}
	w.opts = CoordinatorOptions{LeaseTTL: scheduleTTL}
	if hdr[0]&1 != 0 {
		w.opts.AuditRate = 1
	}
	for jx := range 1 + int(hdr[0]>>2&3)%3 {
		w.refs = append(w.refs, refs[jx])
	}
	w.vouched = make([]bool, len(w.refs))
	w.clock.Store(time.Unix(1000, 0).UnixNano())
	w.client = &http.Client{Transport: roundTripFunc(w.roundTrip)}
	for i := range size - 3 {
		kind := kindHonest
		if i > 0 {
			switch hdr[1] >> (2 * (i - 1)) & 3 {
			case 1:
				kind = kindHung
			case 2:
				if w.liar() == nil {
					kind = kindLiar
				}
			case 3:
				kind = kindSilent
			}
		}
		cfg := hdr[3+i]
		wk := &simWorker{name: fmt.Sprintf("%s%d", [...]string{"honest", "liar", "silent", "hung"}[kind], i), kind: kind, bind: -1}
		if j := int(cfg >> 3 & 3); j > 0 && i > 0 {
			wk.bind = (j - 1) % len(w.refs)
		}
		wk.opts = WorkerOptions{Name: wk.name, TasksPerLease: leaseSizes[cfg&7%5], Reconnect: scheduleTTL}
		if kind == kindLiar {
			wk.opts.Corrupt = func(_ job.Task, v []float64) []float64 {
				v = slices.Clone(v)
				v[0]++
				return v
			}
		}
		wk.io = &workerIO{name: wk.name, base: "http://grid", opts: wk.opts, client: w.client, log: silent}
		w.workers = append(w.workers, wk)
	}
	w.unseam = linelog.SetWriterSeam(func(path string, wr io.Writer) io.Writer {
		return writerFunc(func(p []byte) (int, error) {
			w.record(path, p)
			return wr.Write(p)
		})
	})
	return w
}

// leaseSizes are the workers' TasksPerLease; 0 takes the coordinator's
// sized grant, any other caps it.
var leaseSizes = [5]int{0, 1, 2, 4, 8}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// roundTrip serves a request in process under the pending network fault,
// and judges a worker's request by its answer.
func (w *world) roundTrip(req *http.Request) (*http.Response, error) {
	first, rec := req.Header.Get(HeaderRetryAttempt) == "", httptest.NewRecorder()
	switch {
	case w.fault == faultDown, first && w.fault == faultDrop:
		return nil, errors.New("dropped before the handler")
	case w.fault == faultRefuse:
		writeJSON(rec, http.StatusBadRequest, errorBody{Error: "refused before the handler"})
		return rec.Result(), nil
	}
	var in workerRequest
	if req.Body != nil {
		body, _ := io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
		json.Unmarshal(body, &in)
	}
	asks := in.Lease != nil // an upload that asks for the next grant
	fair := w.fault == 0 && (req.URL.Path == pathLease && in.MaxTasks == 1 || asks && in.Lease.Job == "" && in.Lease.MaxTasks == 1)
	if fair {
		w.locked(func(c *Coordinator) {
			for _, j := range c.jobs {
				// A task the body uploads may be done when the grant is made.
				fair = fair && slices.ContainsFunc(j.tasks, func(st *taskState) bool {
					return st.status == taskPending && !slices.ContainsFunc(in.Results, func(r TaskResult) bool { return r.Task == st.task.ID() })
				})
			}
		})
	}
	var held map[string]taskState // a lease request's view of the leases it may move
	probe := false                // the asker has no ingested task: its grant is one chunk group at most
	if strings.HasSuffix(req.URL.Path, "/lease") || asks {
		held = map[string]taskState{}
		w.locked(func(c *Coordinator) {
			ws := c.workers[in.Worker]
			probe = ws == nil || ws.done == 0
			for _, j := range c.jobs {
				for _, st := range j.tasks {
					held[j.id+"/"+st.task.ID()] = taskState{status: st.status, worker: st.worker, deadline: st.deadline, leasedAt: st.leasedAt}
				}
			}
		})
	}
	before := len(w.writes)
	w.h.ServeHTTP(rec, req)
	if in.Worker != "" {
		w.judge(req.URL.Path, in, rec, held, probe, fair, first && w.fault == faultLose, len(w.writes)-before)
	}
	if first && w.fault == faultLose {
		return nil, errors.New("answer lost after the handler")
	}
	return rec.Result(), nil
}

// workerRequest is what judge reads of a worker's request, whatever the
// route.
type workerRequest struct {
	Worker   string
	MaxTasks int `json:"max_tasks"`
	Tasks    []string
	Results  []TaskResult
	Lease    *LeaseRequest
}

// judge holds a worker's request to its answer: a quarantined worker is
// refused on every route, nobody else is; a grant — a lease call's or an
// upload's —, a renewal, an ack is what the coordinator's state says it
// must be. held is a grant request's leases as they stood before it, by
// job/task; probe says a lease call's worker had no ingested task then.
func (w *world) judge(path string, in workerRequest, rec *httptest.ResponseRecorder, held map[string]taskState, probe, fair, lost bool, writes int) {
	var out struct {
		LeaseResponse
		HeartbeatResponse
		ResultsAck
	}
	json.Unmarshal(rec.Body.Bytes(), &out)
	if refused, q := rec.Header().Get(HeaderQuarantined) != "", w.quarantined(in.Worker); refused != q {
		w.violate(&quarantines, "%s refused %v, quarantined %v", in.Worker, refused, q)
	}
	id, _, _ := strings.Cut(strings.TrimPrefix(path, "/v1/jobs/"), "/")
	c, who := w.c, in.Worker
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case rec.Code != http.StatusOK:
	case strings.HasSuffix(path, "/lease"):
		w.judgeGrant(who, id, in.MaxTasks, out.LeaseResponse, held, probe, fair)
	case strings.HasSuffix(path, "/heartbeat"):
		// A heartbeat renews exactly the leases the worker holds — tasks
		// computing and audit re-checks alike — to a TTL from now.
		j, deadline := c.jobs[id], c.now().Add(scheduleTTL)
		for _, tid := range in.Tasks {
			st := j.task(tid)
			holds := st.worker == who && st.deadline.Equal(deadline)
			if holds != slices.Contains(out.Renewed, tid) || holds == slices.Contains(out.Lost, tid) {
				w.violate(&consistent, "heartbeat of %s on %s answered %+v", who, tid, out.HeartbeatResponse)
			}
		}
	case len(out.Acks) != len(in.Results):
		w.violate(&uploadsAreEntries, "%d entries, %d acks", len(in.Results), len(out.Acks))
	case !lost && w.fault == faultLose:
		// A re-sent body is acked a duplicate entry by entry and writes nothing.
		for i, a := range out.Acks {
			if writes > 0 || !a.Duplicate {
				w.violate(&uploadsAreEntries, "the re-sent %s of %s was acked %+v and made %d writes", in.Results[i].Task, who, a, writes)
			}
		}
	}
	if rec.Code == http.StatusOK && out.Grant != nil {
		// Granted after the body's ingest: a probe only if that left the
		// worker with no ingested task.
		ws := c.workers[who]
		w.judgeGrant(who, in.Lease.Job, in.Lease.MaxTasks, *out.Grant, held, ws == nil || ws.done == 0, fair)
	}
}

// judgeGrant holds one grant to the request for it, asked of scope ("":
// the scheduler's pick) for at most maxTasks, under the coordinator's
// lock.
func (w *world) judgeGrant(who, scope string, maxTasks int, resp LeaseResponse, held map[string]taskState, probe, fair bool) {
	c, most := w.c, math.MaxInt
	if maxTasks > 0 {
		most = maxTasks
	}
	if j := c.jobs[resp.Job]; probe && j != nil {
		most = min(most, j.group)
	}
	switch {
	case c.draining && (len(resp.Tasks) > 0 || !resp.Draining):
		w.violate(&grants, "a lease while draining answered %+v", resp)
	case len(resp.Tasks) > most || scope != "" && resp.Job != scope:
		w.violate(&grants, "asked for %d tasks of job %q, granted %+v", maxTasks, scope, resp)
	}
	j, now, hedged := c.jobs[resp.Job], c.now(), false
	for _, lt := range resp.Tasks {
		st := j.task(lt.Task)
		if st.worker != who {
			w.violate(&grants, "%s was granted %s, whose holder is %q", who, lt.Task, st.worker)
		}
		// A live lease — a task computing or an audit re-check — moves
		// only from another worker, and only past the straggler
		// threshold (never under half a TTL): a hedge. (A re-check whose
		// value the request invalidated, and a lease an upload's audit
		// verdict revoked from its quarantined holder, are granted afresh.)
		if was := held[j.id+"/"+lt.Task]; was.worker != "" && !c.quarantined[was.worker] && !was.deadline.Before(now) && was.status == st.status {
			age := now.Sub(was.leasedAt)
			if was.worker == who || age < scheduleTTL/2 || age < c.hedgeThresholdLocked() {
				w.violate(&grants, "%s took %s (status %d) from %q, who got it %v ago", who, lt.Task, was.status, was.worker, age)
			}
			hedged = true
		} else {
			w.granted[j.id]++
		}
		if st.status == taskDone && st.producer == who && st.audit != nil {
			if now.Before(st.audit.relaxAt) {
				w.violate(&audited, "%s was handed the re-check of its own %s before the relaxation", who, lt.Task)
			}
			w.selfGrant[j.id+"/"+lt.Task+"/"+who] = true
		}
	}
	if w.fairOnly = w.fairOnly && !hedged && (fair || len(resp.Tasks) == 0); w.fairOnly && len(resp.Tasks) > 0 {
		lo, hi := math.MaxInt, math.MinInt
		for _, j := range c.jobs {
			lo, hi = min(lo, j.leasesGranted), max(hi, j.leasesGranted)
		}
		if hi-lo > 1 {
			w.violate(&grants, "single-task grants left the jobs' grants from %d to %d", lo, hi)
		}
	}
}

// record keeps every append to the quarantine journal and the jobs'
// files of the world's current directory: what a crash may cut.
func (w *world) record(path string, p []byte) {
	rel, err := filepath.Rel(w.dir, path)
	base := filepath.Base(path)
	if err != nil || strings.HasPrefix(rel, "..") || base != walFileName && !strings.HasPrefix(base, "manifest-") {
		return
	}
	info, err := os.Stat(path)
	if err != nil {
		w.t.Fatal(err)
	}
	w.writes = append(w.writes, fileWrite{rel, info.Size(), bytes.Clone(p)})
}

// open starts a coordinator on dir and registers the world's jobs, as
// dsa-grid does on every start.
func (w *world) open(dir string) {
	opts := w.opts
	opts.Dir = dir
	w.dir, w.writes, w.parsed, w.selfGrant, w.granted = dir, nil, 0, map[string]bool{}, map[string]int{}
	w.c = NewCoordinator(opts)
	w.c.now = w.now
	w.c.hold = func(context.Context, <-chan struct{}, time.Duration) bool { return false } // every hold ends at once, empty
	w.h = w.c.Handler()
	w.ids = w.ids[:0]
	for _, ref := range w.refs {
		id, err := w.c.AddJob(ref.spec)
		if err != nil {
			w.t.Fatal(err)
		}
		w.ids = append(w.ids, id)
	}
}

func (w *world) now() time.Time { return time.Unix(0, w.clock.Load()) }

// retire closes the coordinator; a draining one has its own clock wound
// past every deadline first, so its drain settles and the drain loop
// exits without touching anything the world still uses.
func (w *world) retire() {
	c := w.c
	if err := c.Close(); err != nil {
		w.t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		c.now = func() time.Time { return time.Unix(0, math.MaxInt64) }
		c.expireAllLocked()
		c.checkDrainedLocked()
	}
}

func (w *world) close() {
	w.retire()
	w.unseam()
}

func (w *world) liar() *simWorker {
	for _, wk := range w.workers {
		if wk.kind == kindLiar {
			return wk
		}
	}
	return nil
}

func (w *world) jobIndex(id string) int { return slices.Index(w.ids, id) }

// locked runs f under the coordinator's lock (released even if f fails
// the test).
func (w *world) locked(f func(c *Coordinator)) {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	f(w.c)
}

func (w *world) quarantined(name string) (q bool) {
	w.locked(func(c *Coordinator) { q = c.quarantined[name] })
	return q
}

// call makes one request of job id's route ("": a route without one).
func (w *world) call(method, pattern, id string, in, out any) error {
	_, err := call(context.Background(), w.client, method, routeURL("http://grid", pattern, id), in, out)
	return err
}

// expect fails the run on an error no step could have caused.
func (w *world) expect(err error) {
	w.t.Helper()
	switch {
	case err == nil, errors.Is(err, ErrWorkerQuarantined):
	case w.fault == faultRefuse && !unreachable(err), w.fault == faultDown && unreachable(err):
	default:
		w.t.Fatalf("step %d: %v", w.step, err)
	}
}

// The step byte: op in bits 0-2, a worker (or another small argument) in
// bits 3-5, k in bits 6-7; the clock and kill steps read bits 3-7 as one
// number.
const (
	opClock = iota // advance by (arg+1)/8 of the lease TTL
	opStep         // deliver worker a's next due event, by k — see next; ops 2 and 3 too
	_
	_
	opStray    // worker a posts one result of job k nobody asked it for
	opNetwork  // the next step's requests are dropped, lost, refused or unreachable (a%4)
	opOperator // k 0: quarantine worker a (never worker 0); 1: re-post job a%3; else drain
	opKill     // kill -9 and restart on what it left; see kill
)

func (w *world) take(b byte) {
	op, a, k, arg := b&7, int(b>>3&7), int(b>>6), int(b>>3)
	wk := w.workers[a%len(w.workers)]
	if op != opClock && op != opNetwork {
		defer func() { w.fault = 0 }()
	}
	switch op {
	case opClock:
		w.advance(scheduleTTL * time.Duration(arg+1) / 8)
	case opStray:
		jx := k % len(w.ids)
		t := w.refs[jx].tasks[(w.step*7+len(w.acks))%len(w.refs[jx].tasks)]
		vals := slices.Clone(w.refs[jx].values[t.ID()])
		if wk.opts.Corrupt != nil {
			vals = wk.opts.Corrupt(t, vals)
		}
		w.post(wk, w.ids[jx], []TaskResult{{Task: t.ID(), Values: vals, ElapsedMS: 5}}, nil)
	case opNetwork:
		w.fault = faultDrop + a%4
	case opOperator:
		w.fault = 0 // the operator's requests do not cross the workers' network
		switch {
		case k == 0 && wk != w.workers[0]:
			quarantine(w.c, wk.name)
			wk.banned = true
		case k == 1:
			w.repost(a % 3 % len(w.ids))
		case k > 1:
			w.drain()
		}
	case opKill:
		w.kill(arg&1 != 0, arg>>1)
	default:
		if wk.core == nil || wk.core.exited {
			w.start(wk) // a worker that went away is restarted
		} else if k < 3 {
			w.next(wk, k)
		} else {
			for n := wk.leases; wk.leases == n && w.next(wk, 0); {
			}
		}
	}
}

// start runs a fresh core for wk, as restarting its process would.
func (w *world) start(wk *simWorker) {
	jobID := ""
	if wk.bind >= 0 {
		jobID = w.ids[wk.bind]
	}
	wk.core, wk.queue, wk.units, wk.wake = newWorkCore(jobID, wk.opts), nil, nil, time.Time{}
	w.deliver(wk, workMsg{kind: msgStart})
}

// next delivers one of wk's due events and reports whether it had one. By
// k, it prefers its oldest held answer, then a compute unit, then its timer
// once the clock has reached it (0); the timer first (1); a unit first (2).
// A hung worker's units never finish.
func (w *world) next(wk *simWorker, k int) bool {
	timer := !wk.wake.IsZero() && !w.now().Before(wk.wake)
	for _, src := range [...]string{"qut", "tqu", "uqt"}[k] {
		switch {
		case src == 'q' && len(wk.queue) > 0:
			ev := wk.queue[0]
			wk.queue = wk.queue[1:]
			w.deliver(wk, ev)
			return true
		case src == 'u' && len(wk.units) > 0 && wk.kind != kindHung:
			t := wk.units[0]
			wk.units = wk.units[1:]
			last := len(wk.units) == 0
			w.deliver(wk, workMsg{kind: msgResult, task: t, body: []TaskResult{{Task: t.ID(), Values: slices.Clone(w.refs[wk.jx].values[t.ID()]), ElapsedMS: 5}}})
			w.deliver(wk, workMsg{kind: msgUnit})
			if last {
				w.deliver(wk, workMsg{kind: msgComputed})
			}
			return true
		case src == 't' && timer:
			wk.wake = time.Time{}
			w.deliver(wk, workMsg{kind: msgWake})
			return true
		}
	}
	return false
}

// deliver hands wk's core one event and carries out what it decides, as
// Work would: a call is made at once and its answer held for a later step.
// A core answered a refusal — a quarantine verdict, any other 4xx — must
// exit, and one whose timer fires while it holds leases, with no
// heartbeat of its own in flight, heartbeats them.
func (w *world) deliver(wk *simWorker, ev workMsg) {
	ev.now = w.now()
	b := wk.core.b
	due := ev.kind == msgWake && b != nil && len(b.held) > 0 &&
		!slices.ContainsFunc(wk.queue, func(e workMsg) bool { return e.kind == msgBeat })
	acts := wk.core.step(ev)
	if ev.kind != msgComputed && ev.err != nil && !unreachable(ev.err) && !wk.core.exited {
		w.violate(&quarantines, "%s was refused (%v) and went on", wk.name, ev.err)
	}
	if due && !slices.ContainsFunc(acts, func(a workMsg) bool { return a.kind == msgBeat && slices.Equal(a.ids, b.held) }) {
		w.violate(&honestFinish, "%s's timer fired holding %v, and it sent no heartbeat", wk.name, b.held)
	}
	for _, a := range acts {
		if wk.kind == kindSilent && wk.leases > 0 {
			return
		}
		switch a.kind {
		case msgLease, msgJob, msgBeat:
			ev := wk.io.request(context.Background(), a, 0)
			w.expect(ev.err)
			wk.queue = append(wk.queue, ev)
			if a.kind == msgLease {
				wk.leases++
			}
		case msgUpload:
			wk.queue = append(wk.queue, w.post(wk, a.job, a.body, a.ask))
			if a.ask != nil {
				wk.leases++
			}
		case msgCompute:
			wk.units, wk.jx = a.tasks, w.jobIndex(a.job)
		case msgStop:
			wk.units = nil
			wk.queue = append(wk.queue, workMsg{kind: msgComputed, err: context.Canceled})
		case msgWake:
			wk.wake = a.at
		case msgExit:
			wk.queue, wk.wake = nil, time.Time{}
		}
	}
}

// post sends body as wk, asking ask with its last part — with split, each
// entry alone, in the order the coordinator takes a body's entries: those
// for tasks done on arrival (duplicates, audit evidence) as they come,
// then the fresh ones, journalled last — notes every entry's verdict, and
// returns the answer with the grant it brought back.
func (w *world) post(wk *simWorker, id string, body []TaskResult, ask *LeaseRequest) workMsg {
	sends := [][]TaskResult{body}
	if w.split {
		sends = nil
		w.locked(func(c *Coordinator) {
			for _, fresh := range []bool{false, true} {
				for _, r := range body {
					if (c.jobs[id].task(r.Task).status != taskDone) == fresh {
						sends = append(sends, []TaskResult{r})
					}
				}
			}
		})
	}
	verdict := map[string]string{}
	var err error
	var grant LeaseResponse
	for n, rs := range sends {
		up := ResultsUpload{Worker: wk.name, Results: rs}
		if n == len(sends)-1 {
			up.Lease = ask
		}
		var ack ResultsAck
		e := w.call(http.MethodPost, pathResults, id, up, &ack)
		if e == nil && ack.Grant != nil {
			grant = *ack.Grant
		}
		w.expect(e)
		for n, r := range rs {
			verdict[r.Task] = "refused"
			if e == nil {
				verdict[r.Task] = fmt.Sprintf("accepted=%v duplicate=%v", ack.Acks[n].Accepted, ack.Acks[n].Duplicate)
			}
		}
		err = cmp.Or(err, e)
	}
	for _, r := range body {
		w.acks = append(w.acks, wk.name+" "+r.Task+" "+verdict[r.Task])
	}
	return workMsg{kind: msgUpload, job: id, err: err, lease: grant}
}

// advance moves the virtual clock. While draining it also ticks the drain
// loop, under the same lock: the real loop then never finds anything to
// expire between two steps, so its wall-clock timing cannot reach the
// journals.
func (w *world) advance(d time.Duration) {
	w.locked(func(c *Coordinator) {
		w.clock.Add(int64(d))
		if c.draining {
			c.expireAllLocked()
			c.checkDrainedLocked()
		}
	})
}

func (w *world) drain() {
	w.locked((*Coordinator).expireAllLocked) // the drain loop's first tick, before it exists
	if err := w.call(http.MethodPost, pathDrain, "", nil, nil); err != nil {
		w.t.Fatal(err)
	}
}

func (w *world) repost(jx int) {
	var sum JobSummary
	writes := len(w.writes)
	if err := w.call(http.MethodPost, pathJobs, "", CreateJobRequest{Spec: w.refs[jx].raw}, &sum); err != nil {
		w.t.Fatal(err)
	}
	if sum.ID != w.ids[jx] || len(w.writes) != writes {
		w.violate(&grants, "re-posting job %s registered %s and made %d writes", w.ids[jx], sum.ID, len(w.writes)-writes)
	}
}

// kill is a coordinator kill -9 and a restart on what it left on disk,
// cut in place. v < 15 cuts the last append to a job's file (else to the
// quarantine journal) as the crash tore it: v/3 whole lines of it, then
// -1, 0 or +1 byte (v%3 - 1), and none of the appends after it.
func (w *world) kill(jobFile bool, v int) {
	w.lastLive = durableProjection(w.c)
	n := len(w.writes)
	i := n - 1
	for i >= 0 && jobFile == (w.writes[i].rel == walFileName) {
		i--
	}
	size := map[string]int64{} // what each file is cut back to
	w.cut = false
	if v < 15 && i >= 0 {
		for k := n - 1; k > i; k-- {
			size[w.writes[k].rel] = w.writes[k].off
		}
		fw, ends := w.writes[i], []int{0}
		for p, ch := range fw.data {
			if ch == '\n' {
				ends = append(ends, p+1)
			}
		}
		at := min(max(ends[min(v/3, len(ends)-1)]+v%3-1, 0), len(fw.data))
		size[fw.rel] = fw.off + int64(at)
		w.cut = len(size) > 1 || at < len(fw.data)
		w.everCut = w.everCut || w.cut
	}
	// Closing may append too (a draining coordinator's last expiries):
	// nothing written after the kill survives it.
	w.retire()
	for _, fw := range w.writes[n:] {
		if _, ok := size[fw.rel]; !ok {
			size[fw.rel] = fw.off
		}
	}
	for rel, to := range size {
		if err := os.Truncate(filepath.Join(w.dir, rel), to); err != nil {
			w.t.Fatal(err)
		}
	}
	w.open(w.dir)
	w.hold(atRestart...)
}

// scanRecords looks at the verify lines the jobs' files gained since the
// last look: a worker vouching for its own value, and the liar vouching
// for a lie, must have been handed the re-check — the relaxation is the
// one way there (6) — and the liar doing so is noted (4).
func (w *world) scanRecords() {
	liar := w.liar()
	for ; w.parsed < len(w.writes); w.parsed++ {
		fw := w.writes[w.parsed]
		id := filepath.Dir(fw.rel)
		jx := w.jobIndex(id)
		if jx < 0 {
			continue // the quarantine journal
		}
		for _, line := range bytes.SplitAfter(fw.data, []byte("\n")) {
			r, ok := decodeWALLine(line)
			if !ok || r.T != walVerify {
				continue
			}
			w.c.mu.Lock()
			st := w.c.jobs[id].task(r.Task)
			producer, lie := st.producer, !equalValues(st.values, w.refs[jx].values[r.Task])
			w.c.mu.Unlock()
			lying := liar != nil && r.Worker == liar.name && lie
			if (r.Worker == producer || lying) && !w.selfGrant[id+"/"+r.Task+"/"+r.Worker] {
				w.violate(&audited, "%s verified the value of %s (produced by %q) without holding its re-check", r.Worker, r.Task, producer)
			}
			w.vouched[jx] = w.vouched[jx] || lying
		}
	}
}

// finish stops the faults and lets the honest workers alone finish every
// job: a draining coordinator first settles — the drain's wait — and
// restarts on the same directory; then, every half TTL, each honest or
// hung worker still admitted — restarted if it went away — takes every
// event that is due: a hung one heartbeats what it holds to the end.
func (w *world) finish() {
	w.fault, w.step = 0, len(w.steps)
	if w.c.Draining() {
		w.advance(2 * scheduleTTL)
		select {
		case <-w.c.Drained():
		default:
			w.violate(&consistent, "the drain did not settle once every lease had expired")
		}
		w.lastLive, w.cut = durableProjection(w.c), false
		w.retire()
		w.open(w.dir)
		w.hold(atRestart...)
	}
	c, liar := w.c, w.liar()
	c.mu.Lock()
	c.expireAllLocked()
	for _, j := range c.jobs {
		for _, st := range j.tasks {
			if liar != nil && w.opts.AuditRate > 0 && st.unauditedBy(liar.name) && (st.audit == nil || st.audit.second == "") {
				w.standingLie = true
			}
		}
	}
	c.mu.Unlock()
	w.scanRecords()
	for round := 0; !w.complete(); round++ {
		if round == 60 {
			w.violate(&honestFinish, "jobs incomplete after %v: %s", 30*scheduleTTL, durableProjection(w.c))
		}
		if round > 0 {
			w.advance(scheduleTTL / 2)
		}
		for _, wk := range w.workers {
			if wk.kind != kindHonest && wk.kind != kindHung || w.quarantined(wk.name) {
				continue
			}
			if wk.core == nil || wk.core.exited {
				w.start(wk)
			}
			for n := 0; w.next(wk, 2); n++ {
				if n == 256 {
					w.violate(&honestFinish, "%s never settles", wk.name)
				}
			}
		}
		w.scanRecords()
	}
}

func (w *world) complete() bool {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.c.allCompleteLocked()
}

// csv is job jx's results route in CSV ("" while incomplete).
func (w *world) csv(jx int) string {
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, routeURL("", pathResults, w.ids[jx])+"?format=csv", nil))
	if rec.Code != http.StatusOK {
		return ""
	}
	return rec.Body.String()
}

// wholeLines folds job jx's manifests the way linelog's rule reads them:
// whole lines only, a tombstone cancels what precedes it, the first live
// line of a task wins, a line naming no task is skipped.
func (w *world) wholeLines(jx int) map[string][]float64 {
	want := map[string]int{}
	for _, t := range w.refs[jx].tasks {
		want[t.ID()] = t.Hi - t.Lo
	}
	out := map[string][]float64{}
	paths, _ := filepath.Glob(filepath.Join(w.dir, w.ids[jx], "manifest-*.jsonl"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			w.t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			var e struct {
				Task   string
				Values dsa.JSONFloats
				Dead   bool
			}
			switch {
			case !bytes.HasSuffix(line, []byte("\n")) || bytes.HasPrefix(line, []byte(`{"crc":`)) || json.Unmarshal(line, &e) != nil:
			case e.Dead:
				delete(out, e.Task)
			case out[e.Task] == nil && len(e.Values) == want[e.Task] && want[e.Task] > 0:
				out[e.Task] = e.Values
			}
		}
	}
	return out
}

// runWorld plays in: its steps, holding the invariants after each, then
// the fault-free finish, the end-of-run invariants and one last restart.
// afterStep, if set, sees the world after every step.
func runWorld(t testing.TB, in []byte, split bool, afterStep func(*world)) *world {
	w := newWorld(t, in, split)
	defer w.close()
	w.open(t.TempDir())
	for ; w.step < len(w.steps) && w.step < 256; w.step++ {
		w.take(w.steps[w.step])
		w.scanRecords()
		w.hold(everyStep...)
		if afterStep != nil {
			afterStep(w)
		}
	}
	w.finish()
	w.hold(atEnd...)
	var files, outcome strings.Builder
	fmt.Fprintf(&outcome, "%s\n%s\n%s", strings.Join(w.acks, "\n"), durableProjection(w.c), strings.Join(walMultiset(t, w.dir), "\n"))
	for jx, id := range w.ids {
		for _, rel := range []string{walFileName, filepath.Join(id, "manifest-grid.jsonl")} {
			data, err := os.ReadFile(filepath.Join(w.dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&files, "== %s\n%s", rel, data)
		}
		fmt.Fprintf(&outcome, "\n%v\n%s", w.wholeLines(jx), w.csv(jx))
	}
	w.files, w.outcome = files.String(), outcome.String()
	w.kill(false, 15)
	return w
}

// An invariant is one promise of the coordinator: a plain function of the
// world, named when it fails. Facts only a step can see are judged on the
// spot, under the invariant they belong to (violate).
type invariant struct {
	name  string
	check func(w *world) error
}

func (w *world) hold(invs ...*invariant) {
	w.t.Helper()
	for _, inv := range invs {
		if err := inv.check(w); err != nil {
			w.violate(inv, "%v", err)
		}
	}
}

func (w *world) violate(inv *invariant, format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("step %d of %d: invariant %s: %s", w.step, len(w.steps), inv.name, fmt.Sprintf(format, args...))
}

var (
	everyStep = []*invariant{&consistent, &restoreIsManifest, &quarantines, &audited, &grants}
	atRestart = []*invariant{&consistent, &restartEqualsLive, &restoreIsManifest, &grants}
	atEnd     = []*invariant{&honestFinish, &consistent, &restoreIsManifest, &csvMatchesRun, &quarantines, &audited, &grants}
)

// 1. The task table is consistent: done counts the done tasks and only
// they hold values, pending the pending ones, nothing pending sits behind the grant cursor, a task's
// one lease is what its status says — none while pending, a holder while
// leased, a re-checker of an open audit only while done — an open audit
// sits on a done task and is counted, no quarantined worker holds a
// lease, and a drain has settled exactly when nothing is in flight. (Also
// judged on the spot: a heartbeat renews exactly what its worker holds.)
var consistent = invariant{"1 consistent task table", func(w *world) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobsLocked() {
		done, pending, audits := 0, 0, 0
		for _, st := range j.tasks {
			switch {
			case (st.status == taskDone) != (st.values != nil):
				return fmt.Errorf("task %s: status %d with values %v", st.task.ID(), st.status, st.values)
			case st.status == taskPending && st.idx < j.next:
				return fmt.Errorf("task %s is pending behind the grant cursor (%d)", st.task.ID(), j.next)
			case (st.status == taskLeased) != (st.worker != "") && (st.status != taskDone || st.audit == nil):
				return fmt.Errorf("task %s: status %d held by %q (audit open %v)", st.task.ID(), st.status, st.worker, st.audit != nil)
			case st.audit != nil && st.status != taskDone:
				return fmt.Errorf("task %s: an audit open in status %d", st.task.ID(), st.status)
			}
			switch st.status {
			case taskDone:
				done++
			case taskPending:
				pending++
			}
			if st.audit != nil {
				audits++
			}
		}
		if done != j.done || pending != j.pending || audits != j.audits {
			return fmt.Errorf("job %s counts %d done, %d pending and %d audits, its table %d, %d and %d",
				j.id, j.done, j.pending, j.audits, done, pending, audits)
		}
		if r := j.revocations(func(w string) bool { return c.quarantined[w] }); len(r) > 0 {
			return fmt.Errorf("task %s is on lease to the quarantined %s", r[0].task.ID(), r[0].worker)
		}
	}
	select {
	case <-c.Drained():
		if c.inflightLocked() > 0 {
			return fmt.Errorf("drained with %d tasks in flight", c.inflightLocked())
		}
	default:
		if c.draining && c.inflightLocked() == 0 {
			return errors.New("draining, nothing in flight, and the drain has not settled")
		}
	}
	return nil
}}

// 2. A restart on a crash copy stands where the dead coordinator stood, in
// everything the journals own (durableProjection; notDurable says what is
// left out and why) — unless the crash cut an append, which no live state
// ever matched.
var restartEqualsLive = invariant{"2 restart equals live", func(w *world) error {
	if got := durableProjection(w.c); !w.cut && got != w.lastLive {
		return fmt.Errorf("a restart does not stand where the dead coordinator did\ndead:\n%s\nrestarted:\n%s", w.lastLive, got)
	}
	return nil
}}

// 3. The values on record are exactly the whole value lines of the jobs'
// files: a task is done if and only if they hold its value, and it holds
// that value.
var restoreIsManifest = invariant{"3 values are the manifests' whole lines", func(w *world) error {
	for jx, id := range w.ids {
		lines := w.wholeLines(jx)
		w.c.mu.Lock()
		for _, st := range w.c.jobs[id].tasks {
			if v, ok := lines[st.task.ID()]; ok != (st.status == taskDone) || ok && !equalValues(v, st.values) {
				w.c.mu.Unlock()
				return fmt.Errorf("task %s: on record %v (status %d), in the manifest %v", st.task.ID(), st.values, st.status, v)
			}
		}
		w.c.mu.Unlock()
	}
	return nil
}}

// 4. Every completed job's CSV is byte-identical to job.Run's when the
// world has no liar or audits everything — except a job whose liar
// vouched for its own lie: the relaxation hands a producer its own re-check
// once a TTL passed with nobody else taking it.
var csvMatchesRun = invariant{"4 CSV byte-identical to job.Run", func(w *world) error {
	if w.liar() != nil && w.opts.AuditRate == 0 {
		return nil
	}
	for jx, id := range w.ids {
		if got := w.csv(jx); !w.vouched[jx] && got != w.refs[jx].csv {
			return fmt.Errorf("job %s: the CSV is not job.Run's:\n%s", id, got)
		}
	}
	return nil
}}

// 5. An honest worker is quarantined only by the operator. A lie that
// stood undisputed when the faults stopped gets its liar quarantined by
// completion, when two honest workers that serve every job finish them.
// (Also judged on the spot: a quarantined worker is refused on every
// route, nobody else is, and a worker answered a refusal — the verdict or
// any other 4xx — exits.)
var quarantines = invariant{"5 quarantine", func(w *world) error {
	finishers := 0
	for _, wk := range w.workers {
		q := w.quarantined(wk.name)
		if wk.kind == kindHonest && q && !wk.banned {
			return fmt.Errorf("honest %s is quarantined", wk.name)
		}
		if wk.kind == kindHonest && !q && wk.bind < 0 {
			finishers++
		}
	}
	if liar := w.liar(); w.step == len(w.steps) && w.standingLie && finishers >= 2 && w.complete() && !w.quarantined(liar.name) {
		return fmt.Errorf("%s's lie stood when the faults stopped, and %s is not quarantined", liar.name, liar.name)
	}
	return nil
}}

// 6. An audited job completes only with every task verified. (Also judged
// on the spot: a producer is handed its own re-check only once the
// relaxation is due, and verifies its own value only holding it.)
var audited = invariant{"6 audited jobs complete verified", func(w *world) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		for _, st := range j.tasks {
			if w.opts.AuditRate > 0 && j.completeLocked() && !st.verified {
				return fmt.Errorf("job %s completed with %s unverified", j.id, st.task.ID())
			}
		}
	}
	return nil
}}

// 7. Per job, leasesGranted is the grants the coordinator has answered
// since it started — tasks and audit re-checks; a move never counts.
// (Also judged on the spot: a re-posted job keeps its
// ID and journals nothing; no grant while draining, none past the
// request's cap, none past one chunk group to a worker with no ingested
// task, none outside its job; every grant leaves its worker the holder; a
// held lease moves only to another worker, past the straggler threshold; and until the first such move, while every
// grant is a single task of the scheduler's pick with every job pending,
// the jobs' grant counts stay within 1 of each other.)
var grants = invariant{"7 grants", func(w *world) error {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range w.ids {
		if j := c.jobs[id]; j.leasesGranted != w.granted[id] {
			return fmt.Errorf("job %s counts %d grants, its answers since start-up %d", id, j.leasesGranted, w.granted[id])
		}
	}
	return nil
}}

// 8. Once the faults stop, the honest workers alone finish every job
// within 30 TTLs (judged by finish), a hung worker heartbeating what it
// holds to the end. (Also judged on the spot: a worker
// whose timer fires while it holds leases, with no heartbeat in flight,
// heartbeats them.)
var honestFinish = invariant{"8 honest workers finish", func(w *world) error {
	if !w.complete() {
		return errors.New("the jobs are incomplete")
	}
	return nil
}}

// 9. The same input writes a byte-identical quarantine journal and job
// files.
var deterministic = invariant{"9 same input, same bytes", func(w *world) error {
	return firstDiff(w.twin.files, w.files)
}}

// 10. A body is its entries: with every body sent as one-entry bodies (in
// the order the coordinator takes a body's entries) the same input ends in
// the same acks, projection, scheduler records, restore and CSVs — unless a crash
// cut an append, whose lines differ between the two. (Also judged on the
// spot: a re-sent body is acked a duplicate entry by entry and writes
// nothing.)
var uploadsAreEntries = invariant{"10 a body is its entries", func(w *world) error {
	if w.twin.everCut || w.everCut {
		return nil
	}
	return firstDiff(w.twin.outcome, w.outcome)
}}

// firstDiff names the first line at which two runs' renderings part.
func firstDiff(a, b string) error {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range max(len(al), len(bl)) {
		if i >= len(al) || i >= len(bl) || al[i] != bl[i] {
			return fmt.Errorf("the runs part at line %d:\n%q\n%q", i+1, al[min(i, len(al)-1)], bl[min(i, len(bl)-1)])
		}
	}
	return nil
}

// spell writes a schedule: the header, then one byte per step.
type spell []byte

// schedule starts a spell: kinds names every worker ('h' honest, 'u' hung,
// 'l' the liar, 's' silent; worker 0 is honest) and jobs runs the first
// 1–3 jobs. Every worker leases from every job, as many tasks as the
// coordinator grants, until tasks or bind says otherwise.
func schedule(audit bool, kinds string, jobs int) spell {
	var h0, h1 byte
	if audit {
		h0 |= 1
	}
	h0 |= byte(jobs-1)<<2 | byte(len(kinds)-2)<<4
	for i, k := range kinds[1:] {
		h1 |= byte(strings.IndexRune("huls", k)) << (2 * i)
	}
	return append(spell{h0, h1, 0}, make(spell, len(kinds))...)
}

// tasks sets worker wk's TasksPerLease and, given a job, has it serve
// that one alone.
func (s spell) tasks(wk, n int, job ...int) spell {
	s = slices.Clone(s)
	s[3+wk] = byte(slices.Index(leaseSizes[:], n))
	for _, j := range job {
		s[3+wk] |= byte(j+1) << 3
	}
	return s
}

// Steps. Each builds a new spell, so a shared prefix is never written
// through.
func (s spell) add(b byte) spell        { return append(slices.Clip(s), b) }
func (s spell) op(op, a, k int) spell   { return s.add(byte(op | a<<3 | k<<6)) }
func (s spell) clock(eighths int) spell { return s.add(byte(opClock | (eighths-1)<<3)) }
func (s spell) step(wk int) spell       { return s.op(opStep, wk, 0) } // its oldest answer, else a unit, else its timer
func (s spell) beat(wk int) spell       { return s.op(opStep, wk, 1) } // its timer first
func (s spell) unit(wk int) spell       { return s.op(opStep, wk, 2) } // a compute unit first
func (s spell) batch(wk int) spell      { return s.op(opStep, wk, 3) } // steps until it sends its next lease
func (s spell) stray(wk, j int) spell   { return s.op(opStray, wk, j) }
func (s spell) drop() spell             { return s.op(opNetwork, 0, 0) }
func (s spell) lose() spell             { return s.op(opNetwork, 1, 0) }
func (s spell) refuse() spell           { return s.op(opNetwork, 2, 0) }
func (s spell) quarantine(wk int) spell { return s.op(opOperator, wk, 0) }
func (s spell) repost(j int) spell      { return s.op(opOperator, j, 1) }
func (s spell) drain() spell            { return s.op(opOperator, 0, 2) }
func (s spell) kill() spell             { return s.add(byte(opKill | 30<<3)) }
func (s spell) started(wk int) spell    { return s.step(wk).step(wk).step(wk) } // leased, joined, computing

// holdsRest has wk, the only worker heard from, run its probe batch and
// then compute its sized grant: every task of its job still pending.
func (s spell) holdsRest(wk int) spell { return s.step(wk).batch(wk).step(wk) }

// sizedGrantDies: the silent worker strays one result, so its one lease
// is a sized grant (six of the seven tasks pending), and goes quiet with
// it for a TTL.
var sizedGrantDies = schedule(false, "hs", 1).stray(1, 0).step(1).clock(9)

// hungThroughRestart: worker 1, hung, holds its probe grant across a
// restart; worker 2, hung too, then takes a grant of the new coordinator.
var hungThroughRestart = schedule(false, "huu", 1).started(1).kill().clock(3).beat(1).step(1).started(2)

// cut is a kill -9 inside the last append to a job's file (else to the
// quarantine journal): after its line-th line, off by d bytes.
func (s spell) cut(jobFile bool, line, d int) spell {
	arg := (line*3 + d + 1) << 1
	if jobFile {
		arg |= 1
	}
	return s.add(byte(opKill | arg<<3))
}

// scheduleCorpus is FuzzSchedule's seed corpus: every interleaving a
// hand-written test used to pin, then long seeded walks.
func scheduleCorpus() []spell {
	audited := schedule(true, "hhl", 1).tasks(0, 2).tasks(1, 2).tasks(2, 2)
	// The silent worker strays two results, so its one lease is a sized
	// grant: the six tasks still pending.
	hedged := schedule(false, "hs", 1).tasks(0, 2).stray(1, 0).clock(1).stray(1, 0)
	// Worker 0's probe batch done, its sized grant holds the other six
	// tasks; its first unit goes up alone and the next four land under that
	// upload, to leave as one four-line body.
	fourLines := func(audit bool) spell {
		return schedule(audit, "hh", 1).holdsRest(0).unit(0).unit(0).unit(0).unit(0).unit(0).step(0)
	}
	corpus := []spell{
		// The sole honest worker confirms its own results once a TTL passed.
		schedule(true, "hs", 1).tasks(0, 4).step(0).batch(0).clock(9).batch(0).batch(0),
		// A producer is not handed its fresh work's audit; a second worker verifies it.
		schedule(true, "hh", 1).tasks(0, 2).tasks(1, 2).step(0).batch(0).step(1).batch(1),
		// A liar disputed by one honest worker and overruled by a second, then refused everywhere.
		audited.step(2).batch(2).step(1).batch(1).step(0).batch(0).step(2).clock(3).unit(2).beat(2).stray(2, 0).step(2).step(2),
		// A producer re-sends its body (the answer was lost) while the audits are open.
		schedule(true, "hh", 1).tasks(0, 2).tasks(1, 2).started(0).lose().unit(0).batch(0).step(1).batch(1),
		// A lie still standing when the faults stop: the honest finishers overrule it and quarantine its liar.
		audited.step(2).batch(2),
		// The relaxation hands the liar its own re-check a TTL on: it vouches for its lie (invariant 4's exception).
		audited.step(2).batch(2).clock(9).batch(2).batch(2),
		// A kill -9 inside a body's one append keeps two of its four value lines; a second worker then verifies
		// them and the coordinator is killed again: the verifies replay against the values that stood.
		fourLines(true).cut(true, 2, 0).step(1).batch(1).kill(),
		// A liar sends its lies twice, then two honest workers overrule it.
		audited.started(2).lose().unit(2).batch(2).step(0).batch(0).step(1).batch(1),
		// A straggler holding every pending task has its leases moved past half a TTL; the new holder wins, the straggler's results are duplicates.
		schedule(false, "hh", 1).tasks(0, 2).holdsRest(1).clock(5).step(0).batch(0).batch(1).kill(),
		// The straggler dies: the leases that moved stay with their new holder, the rest re-queue.
		hedged.step(1).clock(5).started(0).clock(4).beat(0).batch(0).kill(),
		// The hedger dies: the leases it took re-queue and go to a third worker, the straggler, told they
		// are lost, keeps computing, and its late upload still lands first and counts.
		schedule(false, "hsh", 1).tasks(0, 8).tasks(2, 2).holdsRest(0).clock(5).step(1).beat(0).step(0).clock(9).step(2).batch(0),
		// An idle worker asks before half a TTL has passed: nothing moves; asked again past it, the leases move.
		schedule(false, "hh", 1).tasks(0, 8).holdsRest(0).clock(2).step(1).clock(3).step(1).clock(1).step(1).step(1).batch(0),
		// A straggler restarted (a refused heartbeat ended it) asks for more: its own leases never move to it.
		schedule(false, "hh", 1).tasks(0, 8).holdsRest(0).clock(5).refuse().beat(0).step(0).step(0).step(0).batch(0),
		// A kill -9 while a worker holds a live lease (granted on a retry of a dropped request).
		schedule(false, "hh", 1).tasks(0, 2).started(0).unit(0).step(0).unit(0).drop().step(0).kill().clock(9),
		// Expired leases, then a kill -9: the restart starts their tasks pending.
		schedule(false, "hhs", 1).tasks(0, 2).step(2).clock(9).step(0).kill(),
		// An equal share over single-task global grants.
		schedule(false, "hh", 2).tasks(0, 1).tasks(1, 1).step(0).step(1).batch(0).batch(1).batch(0).batch(1).batch(0).batch(1),
		// A drain with leases in flight: no grants, uploads settle it, a graceful restart.
		schedule(false, "hh", 1).tasks(0, 2).tasks(1, 0, 0).step(0).drain().step(1).step(1).step(1).batch(0).clock(2),
		// A quarantine revokes leases and voids unaudited work in two jobs; an expiry sweeps both.
		schedule(false, "hhs", 2).tasks(1, 4).step(1).batch(1).step(2).step(0).batch(0).quarantine(1).clock(12).batch(0).
			clock(1).batch(0).repost(1).kill(),
		// A kill -9 after a quarantine's verdict, before its last tombstone.
		schedule(false, "hh", 1).tasks(1, 4).step(1).batch(1).quarantine(1).cut(true, 0, 0),
		// ... and before the verdict itself.
		schedule(false, "hh", 1).tasks(1, 4).step(1).batch(1).quarantine(1).cut(false, 0, 0),
		// Three jobs, a re-post, a crash while draining.
		schedule(true, "hhls", 3).step(0).step(2).step(3).batch(0).batch(2).repost(2).drain().batch(2).kill().
			step(1).batch(1),
		// A probe grant (one chunk group), renewed by a heartbeat, expired and re-leased to another
		// worker, whose holder's next heartbeat finds it lost; the late uploads race.
		schedule(false, "hh", 1).started(0).clock(4).beat(0).step(0).clock(9).step(1).beat(0).step(0).batch(0).batch(1),
		// A body's answer is lost: the retry under the same request ID is acked duplicate and writes nothing.
		schedule(false, "hh", 1).started(0).lose().unit(0),
		// A worker dies holding a sized grant: all of its tasks re-queue after one TTL.
		sizedGrantDies,
		// A kill -9 while a hung worker holds leases: the restart starts them pending, its heartbeat
		// finds them lost. A second hung worker leases them anew and heartbeats them to the end, never
		// uploading: only a move ends them (invariant 8).
		hungThroughRestart,
		// Full audits and a hung worker, faults none: the audit re-checks it takes it heartbeats to the
		// end, so they move to an honest asker past the straggler threshold (invariant 8).
		schedule(true, "huhsh", 1),
		// A liar's stray lie, disputed by the one honest finisher: the only worker left to arbitrate is
		// hung, so the split re-queues at its give-up though its re-check is still held (invariant 8).
		schedule(true, "hul", 1).tasks(1, 0, 0).tasks(2, 0, 0).stray(2, 0),
	}
	// A kill -9 inside a four-line body's one append, at each line
	// boundary and a byte either side; and at each boundary with audits
	// on, whose restart re-opens the audits of the lines that stood.
	for line := range 5 {
		for d := -1; d <= 1; d++ {
			corpus = append(corpus, fourLines(false).cut(true, line, d))
		}
		corpus = append(corpus, fourLines(true).cut(true, line, 0))
	}
	// Long walks: every op, any worker, a few hundred steps.
	for seed := range uint64(4) {
		rng := rand.New(rand.NewPCG(seed, 29))
		var walk spell
		for range 163 {
			walk = append(walk, byte(rng.Uint32()))
		}
		corpus = append(corpus, walk)
	}
	// An honest worker's upload refused with a plain 400 while nobody is
	// quarantined: the refusal, not a verdict, must end the worker.
	corpus = append(corpus, schedule(false, "hh", 1).started(0).refuse().unit(0).step(0))
	return corpus
}

// FuzzSchedule plays each input three times: twice as it is, whose
// journals must be byte-identical (9), and once with every body split
// into one-entry bodies (10); every run holds invariants 1–8. A failing
// input replays with go test ./internal/grid -run 'FuzzSchedule/<file>'.
func FuzzSchedule(f *testing.F) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	f.Cleanup(func() { retryDelay = orig })
	for _, s := range scheduleCorpus() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		a := runWorld(t, in, false, nil)
		b := runWorld(t, in, false, nil)
		b.twin = a
		b.hold(&deterministic)
		s := runWorld(t, in, true, nil)
		s.twin = a
		s.hold(&uploadsAreEntries)
	})
}

// TestSizedGrantDies plays the corpus entry sizedGrantDies: the silent
// worker's one lease is a sized grant of more than a chunk group, and one
// TTL after it went quiet every task of it is pending again; the world's
// end-of-run invariants then hold the job complete and its CSV job.Run's.
func TestSizedGrantDies(t *testing.T) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	t.Cleanup(func() { retryDelay = orig })
	held := 0
	runWorld(t, sizedGrantDies, false, func(w *world) {
		snap, err := w.c.Progress(w.ids[0]) // runs the lazy expiry
		if err != nil {
			t.Fatal(err)
		}
		switch w.step {
		case 1: // the silent worker's lease
			held = snap.Leased
			if group := len(w.refs[0].spec.Domain.Measures()); held <= group {
				t.Fatalf("the silent worker holds %d tasks, want a sized grant of more than one chunk group (%d)", held, group)
			}
		case 2: // a TTL on
			if snap.Leased != 0 || snap.Requeues != held || snap.Pending != len(w.refs[0].tasks)-1 {
				t.Fatalf("a TTL after the silent worker went quiet: %+v, want its %d leases re-queued", snap, held)
			}
		}
	})
}
