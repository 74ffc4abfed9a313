// Package obs is the engine-side tracing subsystem: spans with
// monotonic timestamps, parent IDs and typed attributes, recorded to
// an append-only JSONL trace journal that lives alongside the job
// checkpoint and merges across shards and workers the same way result
// files do. Where internal/gridobs instruments the HTTP surface of the
// grid, obs instruments the evaluation seams below it — sweep → task →
// cache-lookup → simulate on the engine path, explore → restart on
// the explorer path, lease → task → upload on a grid worker — so a
// slow sweep can finally be attributed: to stragglers, to a cold
// cache, to one measure's simulation cost, or to an idle worker.
//
// The package is dependency-free (stdlib only) and layered strictly
// below every engine package, so any of them can record into it.
//
// Two contracts shape the design:
//
//   - Observation never changes results. A recorder hands out spans
//     and writes them to its journal, nothing else: it keeps no
//     counters (a store's totals are cache.Stats, a sweep's point
//     counts job.Progress) and takes no part in scheduling, seeding or
//     value computation. Sweeps traced and untraced are byte-identical
//     — the trace smoke test pins this with real processes.
//
//   - Zero allocations in steady state. Span handles come from a
//     freelist, attributes live in fixed arrays, and journal lines are
//     encoded into a reused buffer with strconv appends — no fmt, no
//     interface boxing. AllocsPerRun pins in alloc_test.go enforce it,
//     so the simulators' hot-path guarantees (0 allocs per simulated round)
//     survive with tracing on. Instrumentation sits at the sweep /
//     task / point level, never inside simulator round loops.
//
// A nil *Recorder is "tracing off": valid everywhere, records nothing,
// so call sites thread one unconditionally instead of branching.
package obs

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jsonline"
	"repro/internal/linelog"
)

// SpanID identifies a span within one journal file, across every
// session that appended to it; the merged-timeline identity of a span
// is (writer, id). 0 is "no span" — a root.
type SpanID uint64

// maxAttrs bounds the typed attributes one span can carry. Setters
// past the cap drop silently — a span is a measurement, not a log
// line, and a fixed array is what keeps recording allocation-free.
const maxAttrs = 12

const (
	attrString = iota
	attrInt
	attrFloat
)

type attr struct {
	key  string
	kind uint8
	s    string
	i    int64
	f    float64
}

// Span is an in-flight measurement: created by Recorder.Start (or
// Interval), annotated with typed attributes, and written to the
// journal by End. Handles are recycled — a Span must not be touched
// after End or Drop. All methods are safe on a nil Span.
type Span struct {
	r      *Recorder
	id     SpanID
	parent SpanID
	name   string
	start  time.Duration // since the recorder epoch (monotonic)
	dur    time.Duration // fixed duration for Interval spans
	fixed  bool          // dur is authoritative; End must not re-measure
	nattr  int
	attrs  [maxAttrs]attr
	next   *Span // freelist link
}

// Recorder writes spans to one journal file. Open one per writer — a
// sweep shard ("s0of4") or a grid worker name — so every journal has a
// single appender and records carry their origin. A Recorder is safe
// for concurrent use; a nil Recorder is a no-op.
type Recorder struct {
	writer string
	epoch  time.Time // where this journal's timebase reads zero

	nextID atomic.Uint64

	mu   sync.Mutex
	log  *linelog.Log // nil once closed
	free *Span
	buf  []byte // encoded records not yet appended: whole lines, reused
	err  error  // first write error; surfaced by Close
}

// flushBytes is how many encoded bytes a recorder gathers before it
// appends them to the journal with one write.
const flushBytes = 64 << 10

// JournalPattern matches the trace journal files of a directory.
const JournalPattern = "trace-*.jsonl"

// JournalPath returns the journal path for one writer under dir:
// trace-<writer>.jsonl, with path-hostile characters mapped away.
func JournalPath(dir, writer string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, writer)
	if clean == "" {
		clean = "writer"
	}
	return filepath.Join(dir, "trace-"+clean+".jsonl")
}

// OpenDir opens (creating dir if needed) a recorder whose records
// append to JournalPath(dir, writer). The journal is an
// internal/linelog log like the checkpoint manifests: records reach the
// file as whole lines, a line a crash tore is trimmed when the journal
// is opened again, and a resumed run simply keeps appending (see Open).
// Close appends what is buffered and syncs.
func OpenDir(dir, writer string) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return Open(JournalPath(dir, writer), writer)
}

// Open opens a recorder appending to path. A journal that already
// holds records — a -resume into the same trace dir, a restarted worker
// under the same name — is continued, not overlaid: span IDs start past
// the file's size in bytes (a record is longer than one byte, so no
// earlier session can have handed out an ID that large) and the
// timebase at the latest end among the whole records of the file's
// tail, so sessions share one ID space and their windows do not overlap.
func Open(path, writer string) (*Recorder, error) {
	log, err := linelog.Open(path)
	if err != nil {
		return nil, err
	}
	base, err := journalEnd(path, log.Size())
	if err != nil {
		log.Close()
		return nil, err
	}
	r := &Recorder{
		writer: writer,
		epoch:  time.Now().Add(-base),
		log:    log,
		buf:    make([]byte, 0, flushBytes+4096), // room for the line that crosses flushBytes
	}
	r.nextID.Store(uint64(log.Size()))
	return r, nil
}

// tailBytes is how much of an existing journal Open reads to find where
// its timebase stopped: room for hundreds of records, never the file.
const tailBytes = 64 << 10

// journalEnd returns the latest span end among the whole records in the
// last tailBytes of the size-byte journal at path (0 for an empty one,
// or a tail holding no whole record).
func journalEnd(path string, size int64) (end time.Duration, err error) {
	if size == 0 {
		return 0, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	tail := make([]byte, min(size, tailBytes))
	if _, err := f.ReadAt(tail, size-int64(len(tail))); err != nil && err != io.EOF {
		return 0, err
	}
	// The piece before the first newline may be cut by the window: it
	// is not a record to the journal reader either.
	for _, r := range parseJournal(tail) {
		end = max(end, r.rec.End())
	}
	return end, nil
}

// Writer returns the identity stamped on this recorder's records.
func (r *Recorder) Writer() string {
	if r == nil {
		return ""
	}
	return r.writer
}

// Now returns the monotonic offset since the recorder's epoch — the
// timebase of every span it records. 0 on a nil recorder.
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// Start begins a span under parent (0 = root). The span is journalled
// when End is called on it. Nil recorders return a nil (no-op) span.
func (r *Recorder) Start(parent SpanID, name string) *Span {
	if r == nil {
		return nil
	}
	s := r.get()
	s.parent = parent
	s.name = name
	s.start = time.Since(r.epoch)
	return s
}

// Interval records a span whose boundaries the caller measured itself
// (via Now) — how the hill climber journals a restart as the time
// since the previous one ended. End writes it with exactly the
// given duration.
func (r *Recorder) Interval(parent SpanID, name string, start, end time.Duration) *Span {
	if r == nil {
		return nil
	}
	s := r.get()
	s.parent = parent
	s.name = name
	s.start = start
	s.dur = max(end-start, 0)
	s.fixed = true
	return s
}

// get pops a span handle off the freelist (or allocates the first
// time through — steady state never does).
func (r *Recorder) get() *Span {
	r.mu.Lock()
	s := r.free
	if s != nil {
		r.free = s.next
	}
	r.mu.Unlock()
	if s == nil {
		s = &Span{}
	}
	s.r = r
	s.id = SpanID(r.nextID.Add(1))
	s.parent = 0
	s.dur = 0
	s.fixed = false
	s.nattr = 0
	return s
}

// ID returns the span's identifier for parenting children; 0 on nil.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// Str attaches a string attribute. Returns s for chaining.
func (s *Span) Str(key, val string) *Span {
	if s == nil || s.nattr == maxAttrs {
		return s
	}
	s.attrs[s.nattr] = attr{key: key, kind: attrString, s: val}
	s.nattr++
	return s
}

// Int attaches an integer attribute.
func (s *Span) Int(key string, val int64) *Span {
	if s == nil || s.nattr == maxAttrs {
		return s
	}
	s.attrs[s.nattr] = attr{key: key, kind: attrInt, i: val}
	s.nattr++
	return s
}

// Float attaches a float attribute. Non-finite values are journalled
// as null (JSON has no NaN/Inf) and read back as absent.
func (s *Span) Float(key string, val float64) *Span {
	if s == nil || s.nattr == maxAttrs {
		return s
	}
	s.attrs[s.nattr] = attr{key: key, kind: attrFloat, f: val}
	s.nattr++
	return s
}

// End closes the span and appends its record to the journal. The
// handle is recycled — do not touch s afterwards.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.r
	if !s.fixed {
		s.dur = time.Since(r.epoch) - s.start
	}
	r.record(s)
}

// Drop recycles the span without writing anything — for a measurement
// abandoned mid-flight (an errored task, a dangling tail interval).
func (s *Span) Drop() {
	if s == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	s.next = r.free
	r.free = s
	r.mu.Unlock()
}

// record encodes the span onto the reused buffer of pending lines,
// appends them to the journal once flushBytes have gathered, and
// recycles the handle — one lock, zero allocations in steady state.
func (r *Recorder) record(s *Span) {
	r.mu.Lock()
	if r.log != nil {
		b := r.buf
		b = append(b, `{"w":`...)
		b = jsonline.AppendString(b, r.writer)
		b = append(b, `,"id":`...)
		b = appendUint(b, uint64(s.id))
		if s.parent != 0 {
			b = append(b, `,"par":`...)
			b = appendUint(b, uint64(s.parent))
		}
		b = append(b, `,"name":`...)
		b = jsonline.AppendString(b, s.name)
		b = append(b, `,"start_us":`...)
		b = appendInt(b, s.start.Microseconds())
		b = append(b, `,"dur_us":`...)
		b = appendInt(b, s.dur.Microseconds())
		if s.nattr > 0 {
			b = append(b, `,"attrs":{`...)
			for i := 0; i < s.nattr; i++ {
				if i > 0 {
					b = append(b, ',')
				}
				a := &s.attrs[i]
				b = jsonline.AppendString(b, a.key)
				b = append(b, ':')
				switch a.kind {
				case attrString:
					b = jsonline.AppendString(b, a.s)
				case attrInt:
					b = appendInt(b, a.i)
				case attrFloat:
					b = appendFloat(b, a.f)
				}
			}
			b = append(b, '}')
		}
		r.buf = append(b, '}', '\n')
		if len(r.buf) >= flushBytes {
			r.flush(false)
		}
	}
	s.next = r.free
	r.free = s
	r.mu.Unlock()
}

// flush appends the pending lines to the journal as one write — whole
// lines, so the file never ends mid-record unless a crash tears the
// write itself. Under mu.
func (r *Recorder) flush(durable bool) {
	r.keep(r.log.Append(r.buf, durable))
	r.buf = r.buf[:0]
}

// Flush forces buffered records to the journal file (Close does this
// too; Flush is for long-lived recorders that want bounded loss).
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log != nil && len(r.buf) > 0 {
		r.flush(false)
	}
	return r.err
}

// Close appends what is buffered, syncs the journal and surfaces the
// first write error. Safe on a nil recorder; idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return r.err
	}
	r.flush(true)
	r.keep(r.log.Close())
	r.log = nil
	return r.err
}

// keep remembers the journal's first write error, under mu.
func (r *Recorder) keep(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}
