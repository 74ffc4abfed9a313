// Package linelog is the one append-only, newline-framed durable file
// under the checkpoint manifests, the coordinator WAL and the collected
// trace journals. What a line holds is its caller's business; when a
// line exists is decided here, once: a record exists when its '\n' is
// on disk. Open trims a tail a crash left unterminated, a failed append
// is trimmed back before the next one can land, durable appends share
// fsyncs, and Lines is the same rule for a reader.
package linelog

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
)

// WriteError is the typed failure of a durable write: it names the file
// and the offset of the first byte that did not make it, so disk-full
// and short-write conditions are actionable from a log line. Unwrap
// exposes the cause (syscall.ENOSPC, io.ErrShortWrite, ...) for
// errors.Is.
type WriteError struct {
	Path string // file being written
	Off  int64  // offset of the first byte NOT durably written
	Op   string // what was being attempted ("append", "sync", "rename", ...)
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("linelog: %s %s at offset %d: %v", e.Op, e.Path, e.Off, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// The writer seam lets the chaos harness (internal/chaos.FileFaults)
// and the perf ledger interpose on every durable write — log appends,
// spec.json, cache segment records — without the production code
// knowing. nil seam = writes untouched.
var (
	seamMu sync.RWMutex
	seamFn func(path string, w io.Writer) io.Writer
)

// SetWriterSeam installs fn as the durable-write interposer and returns
// a restore func. Passing nil removes the seam.
func SetWriterSeam(fn func(path string, w io.Writer) io.Writer) (restore func()) {
	seamMu.Lock()
	prev := seamFn
	seamFn = fn
	seamMu.Unlock()
	return func() {
		seamMu.Lock()
		seamFn = prev
		seamMu.Unlock()
	}
}

// WrapWriter routes one durable write for path through the installed
// seam.
func WrapWriter(path string, w io.Writer) io.Writer {
	seamMu.RLock()
	fn := seamFn
	seamMu.RUnlock()
	if fn == nil {
		return w
	}
	return fn(path, w)
}

// Log is one open line-log. Safe for concurrent use.
type Log struct {
	path   string
	f      *os.File     // O_APPEND: every write lands at the end
	mu     sync.Mutex   // serialises appends
	off    atomic.Int64 // end of the file: everything before it is whole lines (written under mu)
	syncMu sync.Mutex   // held across one fsync
	synced int64        // prefix known durable (under syncMu)
}

// Open opens path for appending, creating it if absent. A final line
// without its '\n' — an append a crash tore — is truncated away: it was
// never acknowledged, and the next line must not fuse with it. A new
// file's directory entry is synced before Open returns.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("linelog: %w", err)
	}
	end, err := trimTail(f)
	if err == nil && end == 0 {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("linelog: open %s: %w", path, err)
	}
	// What an earlier process appended, it synced or lost.
	l := &Log{path: path, f: f, synced: end}
	l.off.Store(end)
	return l, nil
}

// trimTail truncates f to just past its last '\n' and returns that size.
func trimTail(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var keep int64
	buf := make([]byte, min(st.Size(), 64<<10))
	for hi := st.Size(); hi > 0; {
		lo := max(hi-int64(len(buf)), 0)
		if _, err := f.ReadAt(buf[:hi-lo], lo); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:hi-lo], '\n'); i >= 0 {
			keep = lo + int64(i) + 1
			break
		}
		hi = lo
	}
	if keep < st.Size() {
		return keep, f.Truncate(keep)
	}
	return keep, nil
}

// Append writes lines — whole lines, each ending in '\n' — at the end of
// the log with a single write (none for no lines). A failed or short
// write is truncated back and reported as a *WriteError carrying the
// offset of the first unwritten byte; the log stays line-clean and
// appendable.
//
// With durable set, Append returns only once the lines, and every line
// appended before them, are fsynced: Append(nil, true) makes what plain
// appends wrote durable. The fsync is shared: whoever holds the sync lock
// syncs everything appended so far, and a caller whose bytes are inside
// an fsync that started after its write returns without a second one
// (group commit). Without it the lines survive a process crash (the page
// cache does), not power loss.
func (l *Log) Append(lines []byte, durable bool) error {
	end := l.off.Load()
	if len(lines) > 0 {
		var err error
		if end, err = l.write(lines); err != nil {
			return err
		}
	}
	if !durable {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= end {
		return nil
	}
	covered := l.off.Load()
	if err := l.f.Sync(); err != nil {
		return &WriteError{Path: l.path, Off: l.synced, Op: "sync", Err: err}
	}
	l.synced = covered
	return nil
}

// write appends lines under the append lock and returns the new end.
func (l *Log) write(lines []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := l.off.Load()
	n, err := WrapWriter(l.path, l.f).Write(lines)
	if err == nil && n < len(lines) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// The lock makes the torn bytes the file's last, so lines other
		// callers appended earlier — synced yet or not — are untouched.
		// If the truncate itself fails the torn bytes stay and only the
		// line fused with them is lost to a later read.
		l.f.Truncate(off)
		return 0, &WriteError{Path: l.path, Off: off + int64(n), Op: "append", Err: err}
	}
	return l.off.Add(int64(n)), nil
}

// Size is the length of the log: every byte before it belongs to a
// whole line.
func (l *Log) Size() int64 { return l.off.Load() }

// Path is the file the log appends to.
func (l *Log) Path() string { return l.path }

// Close closes the file. Append must not be called after Close.
func (l *Log) Close() error { return l.f.Close() }

// Lines calls fn with each whole line of data, in order, without its
// '\n'. A final piece with no '\n' is not a record and is not passed
// on; no line is too long.
func Lines(data []byte, fn func(line []byte)) {
	for {
		line, rest, whole := bytes.Cut(data, []byte("\n"))
		if !whole {
			return
		}
		fn(line)
		data = rest
	}
}

// SyncDir fsyncs a directory so a just-created or just-renamed file's
// entry is durable. Filesystems that cannot sync directories (some
// network mounts) report EINVAL/ENOTSUP; those fall back silently to
// crash-only (not power-loss) durability.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
