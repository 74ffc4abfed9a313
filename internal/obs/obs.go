// Package obs is the engine-side tracing subsystem: spans with
// monotonic timestamps, parent IDs and typed attributes, recorded to
// an append-only JSONL trace journal that lives alongside the job
// checkpoint and merges across shards and workers the same way result
// files do. Where internal/gridobs instruments the HTTP surface of the
// grid, obs instruments the evaluation seams below it — sweep → task →
// cache-lookup → simulate on the engine path, explore → generation on
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
//     so the PR 5 hot-path guarantees (0 allocs per simulated round)
//     survive with tracing on. Instrumentation sits at the sweep /
//     task / point level, never inside simulator round loops.
//
// A nil *Recorder is "tracing off": valid everywhere, records nothing,
// so call sites thread one unconditionally instead of branching.
package obs

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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
	w    *bufio.Writer // nil once closed
	f    *os.File
	free *Span
	buf  []byte
	err  error // first write error; surfaced by Close
}

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
// append to JournalPath(dir, writer). Appending is crash-tolerant by
// the same rule as the checkpoint manifests: a torn final line is
// skipped on load, never corrupts earlier records, and a resumed run
// simply keeps appending (see Open). Close flushes and syncs.
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
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, base, err := journalEnd(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &Recorder{
		writer: writer,
		epoch:  time.Now().Add(-base),
		f:      f,
		w:      bufio.NewWriterSize(f, 64<<10),
		buf:    make([]byte, 0, 1024),
	}
	r.nextID.Store(uint64(size))
	return r, nil
}

// tailBytes is how much of an existing journal Open reads to find where
// its timebase stopped: room for hundreds of records, never the file.
const tailBytes = 64 << 10

// journalEnd returns f's size and the latest span end among the whole
// records in its last tailBytes (0 for a new file, or a tail holding no
// whole record).
func journalEnd(f *os.File) (size int64, end time.Duration, err error) {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return 0, 0, err
	}
	size = fi.Size()
	tail := make([]byte, min(size, tailBytes))
	if _, err := f.ReadAt(tail, size-int64(len(tail))); err != nil && err != io.EOF {
		return 0, 0, err
	}
	// The piece before the first newline may be cut by the window and
	// the piece after the last one torn by a crash: neither is a record
	// to the journal reader either.
	raws, err := readJournalFrom(bytes.NewReader(tail), f.Name())
	for _, r := range raws {
		end = max(end, r.rec.End())
	}
	return size, end, err
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
// (via Now) — how the explorers journal a restart or a generation as
// the time since the previous one ended. End writes it with exactly the
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

// record encodes the span into the reused line buffer, appends it to
// the journal, and recycles the handle — one lock, zero allocations in
// steady state.
func (r *Recorder) record(s *Span) {
	r.mu.Lock()
	if r.w != nil {
		b := r.buf[:0]
		b = append(b, `{"w":`...)
		b = appendJSONString(b, r.writer)
		b = append(b, `,"id":`...)
		b = appendUint(b, uint64(s.id))
		if s.parent != 0 {
			b = append(b, `,"par":`...)
			b = appendUint(b, uint64(s.parent))
		}
		b = append(b, `,"name":`...)
		b = appendJSONString(b, s.name)
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
				b = appendJSONString(b, a.key)
				b = append(b, ':')
				switch a.kind {
				case attrString:
					b = appendJSONString(b, a.s)
				case attrInt:
					b = appendInt(b, a.i)
				case attrFloat:
					b = appendFloat(b, a.f)
				}
			}
			b = append(b, '}')
		}
		b = append(b, '}', '\n')
		r.buf = b
		_, err := r.w.Write(b)
		r.keep(err)
	}
	s.next = r.free
	r.free = s
	r.mu.Unlock()
}

// Flush forces buffered records to the journal file (Close does this
// too; Flush is for long-lived recorders that want bounded loss).
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil {
		r.keep(r.w.Flush())
	}
	return r.err
}

// Close flushes and syncs the journal and surfaces the first write
// error. Safe on a nil recorder; idempotent.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w == nil {
		return r.err
	}
	r.keep(r.w.Flush())
	r.keep(r.f.Sync())
	r.keep(r.f.Close())
	r.f, r.w = nil, nil
	return r.err
}

// keep remembers the journal's first write error, under mu.
func (r *Recorder) keep(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}
