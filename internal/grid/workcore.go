package grid

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/job"
)

// The worker's decisions, apart from its I/O. A workCore is one worker's
// state and step is all it does: one event in — an answer, a landed
// result, a timer — and the actions it calls for out. Every event carries
// its own now, and the core starts, calls and waits on nothing, so Work
// (worker.go) drives it on goroutines and the wall clock while
// FuzzSchedule drives the very same decisions on a virtual clock, one
// event per input byte.

type msgKind int

const (
	msgStart    msgKind = iota // event: the worker starts
	msgLease                   // action: lease from job, every job if ""; event: its answer, lease or err
	msgJob                     // action: fetch job's spec; event: spec or err
	msgBeat                    // action: heartbeat ids of job; event: the ids lost, or err
	msgUpload                  // action: post body to job's results, asking ask; event: err, or the grant in lease
	msgCompute                 // action: compute tasks of job's spec
	msgResult                  // event: task's result landed, body[0]
	msgUnit                    // event: an execution unit's last result landed
	msgComputed                // event: the compute ended, err
	msgStop                    // action: stop computing
	msgWake                    // action: a timer at at; event: it fired
	msgExit                    // action: Work returns err, or nil having done why
)

// workMsg is an event for the core or an action from it. A call comes back
// as the event of its own kind, answered.
type workMsg struct {
	kind     msgKind
	now, at  time.Time
	err      error
	job, why string
	lease    LeaseResponse
	ask      *LeaseRequest // the next lease, asked with a batch's last body
	spec     job.Spec
	tasks    []job.Task
	task     job.Task
	ids      []string
	body     []TaskResult
}

// workCore decides for one worker: which lease, spec, heartbeat and upload
// to ask for, when to wait, what to ride out and when to go.
type workCore struct {
	jobID   string // "" leases from every job
	opts    WorkerOptions
	specs   map[string]job.Spec // the jobs joined so far
	granted LeaseResponse       // a grant waiting for its job's spec
	b       *workBatch          // the lease batch in hand
	// When the coordinator stopped answering (zero while it answers), the
	// last lease call's send, the end of a poll wait, and the wake last
	// asked for.
	outage, asked, sleep, wake time.Time
	exited                     bool
	out                        []workMsg
}

// workBatch is one lease batch: its compute, its heartbeats, and its
// upload pipeline — one body in flight (sent), what lands meanwhile
// gathering for the next (landed).
type workBatch struct {
	job          string
	held         []string // heartbeated, in grant order: neither acked nor lost
	period       time.Duration
	beatAt       time.Time
	beating      bool // a heartbeat is in flight
	computing    bool
	left         int // results not landed yet
	landed, sent []TaskResult
	err          error // the batch failed: it stops, then is ridden out
}

func newWorkCore(jobID string, opts WorkerOptions) *workCore {
	return &workCore{jobID: jobID, opts: opts, specs: map[string]job.Spec{}}
}

func (c *workCore) do(a workMsg) { c.out = append(c.out, a) }

func (b *workBatch) drop(id string) {
	b.held = slices.DeleteFunc(b.held, func(h string) bool { return h == id })
}

// step applies one event and returns the actions it calls for.
func (c *workCore) step(ev workMsg) []workMsg {
	c.out = nil
	if c.exited {
		return nil
	}
	now, b, l := ev.now, c.b, ev.lease
	switch ev.kind {
	case msgStart:
		c.next(now)
	case msgLease:
		if ev.err != nil {
			c.rideOut(now, ev.err)
		} else {
			c.take(now, l, true)
		}
	case msgJob:
		if ev.err != nil {
			c.granted = LeaseResponse{} // left to expire
			c.rideOut(now, ev.err)
			break
		}
		c.outage, c.specs[ev.job] = time.Time{}, ev.spec
		c.next(now)
	case msgBeat:
		switch {
		case ev.err != nil && !unreachable(ev.err):
			c.exit(ev.err, "") // a verdict, or any refusal, ends the batch at once
		case b != nil:
			// Unanswered, the leases stand until their TTL; a lost one is
			// not renewed again, but its result still goes up. (An earlier
			// batch's late answer can name only a lease granted again since,
			// which then goes unrenewed: a re-run at worst.)
			b.beating = false
			for _, id := range ev.ids {
				b.drop(id)
			}
		}
	case msgResult:
		if r := ev.body[0]; b.err == nil {
			if c.opts.Corrupt != nil {
				r.Values = c.opts.Corrupt(ev.task, r.Values)
			}
			b.landed, b.left = append(b.landed, r), b.left-1
		}
	case msgUnit:
		c.send()
	case msgUpload:
		switch {
		case ev.err == nil:
			for _, r := range b.sent {
				b.drop(r.Task)
			}
			b.sent = nil
			c.send()
			c.take(now, l, false)
		case c.tolerate(now, ev.err):
			b.err, b.sent, b.landed = ev.err, nil, nil
			c.stop()
		default:
			c.exit(ev.err, "")
		}
		c.settle(now)
	case msgComputed:
		b.computing, b.err = false, cmp.Or(b.err, ev.err)
		c.settle(now)
	case msgWake:
		c.wake = time.Time{}
		if !c.sleep.IsZero() && !now.Before(c.sleep) {
			c.sleep = time.Time{}
			c.next(now)
		}
		if b != nil && !now.Before(b.beatAt) {
			b.beatAt = now.Add(b.period)
			if !b.beating && len(b.held) > 0 {
				b.beating = true
				c.do(workMsg{kind: msgBeat, job: b.job, ids: slices.Clone(b.held)})
			}
		}
	}
	at := c.sleep
	if b := c.b; b != nil && len(b.held) > 0 {
		at = b.beatAt
	}
	if !c.exited && !at.IsZero() && !at.Equal(c.wake) {
		c.wake = at
		c.do(workMsg{kind: msgWake, at: at})
	}
	return c.out
}

// next asks for what the worker lacks: the spec of the job it serves or
// was just granted, then that grant's batch, or else a lease.
func (c *workCore) next(now time.Time) {
	id := cmp.Or(c.granted.Job, c.jobID)
	spec, joined := c.specs[id]
	switch {
	case id != "" && !joined:
		c.do(workMsg{kind: msgJob, job: id})
	case c.granted.Job == "":
		c.asked = now
		c.do(workMsg{kind: msgLease, job: c.jobID})
	default:
		// The batch: compute it, heartbeat it every third of its TTL.
		l := c.granted
		b := &workBatch{job: l.Job, computing: true, left: len(l.Tasks)}
		tasks := make([]job.Task, len(l.Tasks))
		ttl := DefaultLeaseTTL
		for i, lt := range l.Tasks {
			tasks[i] = job.Task{Measure: lt.Measure, Lo: lt.Lo, Hi: lt.Hi}
			b.held = append(b.held, lt.Task)
			ttl = cmp.Or(time.Duration(lt.TTLMS)*time.Millisecond, ttl)
		}
		b.period = max(ttl/3, 10*time.Millisecond)
		b.beatAt = now.Add(b.period)
		c.b, c.granted = b, LeaseResponse{}
		c.do(workMsg{kind: msgCompute, job: l.Job, spec: spec, tasks: tasks})
	}
}

// take acts on a lease answer: a lease call's (call), or the grant a
// batch's last upload brought back. It exits on a drain or on completion,
// keeps a grant for when no batch is in hand, and after a lease call
// answered nothing waits out the rest of a Poll from the call's send —
// none at all if the coordinator held the call that long, a Poll if it
// answered at once. An upload's empty grant (or none, from a coordinator
// that grants none on an ack) leads straight to a lease call, held.
func (c *workCore) take(now time.Time, l LeaseResponse, call bool) {
	switch {
	case l.Draining:
		c.exit(nil, "coordinator draining, exiting")
	case len(l.Tasks) == 0 && l.Complete:
		c.exit(nil, "work complete")
	case len(l.Tasks) > 0:
		c.outage, c.granted = time.Time{}, l
		if c.b == nil {
			c.next(now)
		}
	case call:
		c.outage, c.sleep = time.Time{}, c.asked.Add(c.opts.poll())
	}
}

// send puts what has landed on the wire unless a body is still in flight;
// the batch's last body asks for the next grant.
func (c *workCore) send() {
	if b := c.b; b.sent == nil && b.err == nil && len(b.landed) > 0 {
		b.sent, b.landed = b.landed, nil
		up := workMsg{kind: msgUpload, job: b.job, body: b.sent}
		if b.left == 0 {
			up.ask = &LeaseRequest{MaxTasks: c.opts.TasksPerLease, Job: c.jobID}
		}
		c.do(up)
	}
}

// settle ends the batch once nothing computes and nothing is in flight:
// on to the next lease, or — the batch failed — ride it out.
func (c *workCore) settle(now time.Time) {
	if b := c.b; b != nil && !b.computing && b.sent == nil {
		c.b = nil
		if b.err != nil {
			c.rideOut(now, b.err)
			return
		}
		c.outage = time.Time{}
		c.next(now)
	}
}

// tolerate is WorkerOptions.Reconnect: a coordinator that cannot be reached
// is waited out until it has been so for the whole window. An answer — a
// quarantine verdict, any other 4xx — never is.
func (c *workCore) tolerate(now time.Time, err error) bool {
	if c.opts.Reconnect <= 0 || !unreachable(err) {
		return false
	}
	c.outage = cmp.Or(c.outage, now)
	return now.Sub(c.outage) < c.opts.Reconnect
}

// rideOut waits a poll after a failure it may tolerate, and exits on any
// other.
func (c *workCore) rideOut(now time.Time, err error) {
	if !c.tolerate(now, err) {
		c.exit(err, "")
		return
	}
	c.sleep = now.Add(c.opts.poll())
}

func (c *workCore) stop() {
	if c.b != nil && c.b.computing {
		c.do(workMsg{kind: msgStop})
	}
}

func (c *workCore) exit(err error, why string) {
	c.stop()
	c.b, c.exited = nil, true
	c.do(workMsg{kind: msgExit, err: err, why: why})
}
