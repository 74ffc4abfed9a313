package linelog_test

// The crash rule, the failure surface and the group commit of every
// newline-framed durable file in the repo, pinned once: the manifest,
// WAL and trace-collector tests above this package only pin what their
// lines mean.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/linelog"
)

// wholeLines is the oracle of the crash rule: the prefix of data up to
// and including its last '\n'.
func wholeLines(data []byte) []byte {
	return data[:bytes.LastIndexByte(data, '\n')+1]
}

// reopenAndAppend opens path, checks the log holds exactly want, appends
// one fresh line and checks a plain read sees want plus that line.
func reopenAndAppend(t *testing.T, path string, want []byte) {
	t.Helper()
	l, err := linelog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != int64(len(want)) || l.Path() != path {
		t.Fatalf("Open: size %d path %q, want %d whole-line bytes at %q", l.Size(), l.Path(), len(want), path)
	}
	if err := l.Append([]byte("fresh\n"), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), want...), "fresh\n"...)) {
		t.Fatalf("after reopen + append the file holds %q, want %q + the fresh line", got, want)
	}
}

// TestOpenTrimsEveryCrashPoint cuts a multi-line file at every byte
// offset — every state a crash mid-append can leave — and requires Open
// to keep exactly the whole lines and the next append to read back
// intact, never fused with a torn tail.
func TestOpenTrimsEveryCrashPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	full := []byte("{\"a\":1}\n\n{\"b\":[1,2,3]}\nplain text\n{\"c\":\"x\\ny\"}\n")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndAppend(t, path, wholeLines(full[:cut]))
	}
}

// TestOpenTrimsLongTail: the last newline is found however far from the
// end it sits (lines are as long as their callers make them).
func TestOpenTrimsLongTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	long := strings.Repeat("x", 200<<10)
	for _, content := range []string{
		long,                       // no newline at all
		"head\n" + long,            // torn tail longer than any read buffer
		long + "\n" + long,         // whole long line, torn long line
		long + "\n" + long + "\n",  // nothing to trim
		"head\n" + long + "\ntail", // short torn tail
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndAppend(t, path, wholeLines([]byte(content)))
	}
}

// TestAppendFaultsTypedAndTrimmed: disk-full and short writes, durable
// or not, come back as *WriteError with the path and the offset of the
// first unwritten byte; the file stays line-clean; and the retry lands
// whole after another goroutine's append got in first.
func TestAppendFaultsTypedAndTrimmed(t *testing.T) {
	for _, tc := range []struct {
		name        string
		short, fail float64
		cause       error
	}{
		{"enospc", 0, 1, syscall.ENOSPC},
		{"short", 1, 0, io.ErrShortWrite},
	} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", tc.name, durable), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "faulted.log")
				l, err := linelog.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if err := l.Append([]byte("first\n"), durable); err != nil {
					t.Fatal(err)
				}
				before := l.Size()

				restore := linelog.SetWriterSeam(chaos.NewFileFaults(7, tc.short, tc.fail, "faulted").Wrap)
				err = l.Append([]byte("second line\nthird line\n"), durable)
				restore()
				var werr *linelog.WriteError
				if !errors.As(err, &werr) {
					t.Fatalf("err = %v, want *linelog.WriteError", err)
				}
				if werr.Path != path || werr.Op != "append" {
					t.Fatalf("WriteError = %+v, want path %s and op \"append\"", werr, path)
				}
				if torn := werr.Off - before; torn < 0 || (tc.short > 0) != (torn > 0) {
					t.Fatalf("WriteError.Off = %d with %d bytes in the log before the append", werr.Off, before)
				}
				if !errors.Is(err, tc.cause) || !errors.Is(err, chaos.ErrInjected) {
					t.Fatalf("err = %v, want %v via chaos.ErrInjected", err, tc.cause)
				}
				if l.Size() != before {
					t.Fatalf("Size = %d after a failed append, want %d", l.Size(), before)
				}
				if got, _ := os.ReadFile(path); string(got) != "first\n" {
					t.Fatalf("file after a failed append = %q, want it trimmed back to %q", got, "first\n")
				}

				other := make(chan error)
				go func() { other <- l.Append([]byte("other\n"), durable) }()
				if err := <-other; err != nil {
					t.Fatal(err)
				}
				if err := l.Append([]byte("second line\nthird line\n"), durable); err != nil {
					t.Fatalf("retry: %v", err)
				}
				want := "first\nother\nsecond line\nthird line\n"
				if got, _ := os.ReadFile(path); string(got) != want || l.Size() != int64(len(want)) {
					t.Fatalf("file after retry = %q (Size %d), want %q", got, l.Size(), want)
				}
			})
		}
	}
}

// TestConcurrentDurableAppends: 16 appenders share fsyncs, and each
// line is in the file — whole, exactly once — when its Append returns.
func TestConcurrentDurableAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := linelog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 16, 25
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				line := []byte(fmt.Sprintf("{\"appender\":%d,\"n\":%d}\n", a, i))
				if err := l.Append(line, true); err != nil {
					t.Error(err)
					return
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
					return
				}
				if at := bytes.Index(got, line); at < 0 || (at > 0 && got[at-1] != '\n') {
					t.Errorf("line %q not whole in a fresh read after its Append returned", line)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(got, []byte("\n"))
	if n := len(lines) - 1; n != appenders*each || len(lines[n]) != 0 {
		t.Fatalf("%d whole lines (+%q), want %d", n, lines[n], appenders*each)
	}
	seen := map[string]bool{}
	for _, line := range lines[:len(lines)-1] {
		if seen[string(line)] {
			t.Fatalf("line %q appears twice", line)
		}
		seen[string(line)] = true
	}
}

// FuzzOpen hands Open arbitrary bytes as the existing file: it keeps
// exactly the whole lines, and the next append reads back intact.
func FuzzOpen(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte("one\ntwo\n"))
	f.Add([]byte("one\ntw"))
	f.Add([]byte("no newline"))
	f.Add([]byte("\n\n\x00\xff\n{"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzzed.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndAppend(t, path, wholeLines(data))
	})
}

// TestLines: whole lines only, in order, empty ones included, and no
// length at which a line stops being one.
func TestLines(t *testing.T) {
	long := strings.Repeat("x", 5<<20)
	var got []string
	linelog.Lines([]byte("a\n\n"+long+"\nb\ntorn"), func(line []byte) { got = append(got, string(line)) })
	if want := []string{"a", "", long, "b"}; !slices.Equal(got, want) {
		t.Fatalf("Lines returned %d lines, want %d (a, empty, the long one, b)", len(got), len(want))
	}
}
