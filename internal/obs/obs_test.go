package obs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/linelog"
)

func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	rec, err := OpenDir(dir, "s0of2")
	if err != nil {
		t.Fatal(err)
	}

	root := rec.Start(0, "sweep").Str("domain", "pra").Int("points", 100)
	task := rec.Start(root.ID(), "task").
		Str("measure", "perf").Int("cache_hits", 3).Int("simulated", 7).Float("frac", 0.3)
	time.Sleep(time.Millisecond)
	taskID := task.ID()
	task.End()
	rec.Start(root.ID(), "cache-lookup").Int("hits", 3).End()
	root.End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadFile(JournalPath(dir, "s0of2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]Record{}
	for _, r := range recs {
		byName[r.Name] = r
		if r.Writer != "s0of2" {
			t.Errorf("record %q writer = %q, want s0of2", r.Name, r.Writer)
		}
	}
	sweep, ok := byName["sweep"]
	if !ok {
		t.Fatal("no sweep record")
	}
	if sweep.Parent != 0 {
		t.Errorf("sweep parent = %d, want 0", sweep.Parent)
	}
	if got := sweep.AttrStr("domain"); got != "pra" {
		t.Errorf("sweep domain = %q", got)
	}
	if got := sweep.AttrInt("points"); got != 100 {
		t.Errorf("sweep points = %d", got)
	}
	task2 := byName["task"]
	if SpanID(task2.ID) != taskID {
		t.Errorf("task id = %d, want %d", task2.ID, taskID)
	}
	if SpanID(task2.Parent) != SpanID(sweep.ID) {
		t.Errorf("task parent = %d, want %d", task2.Parent, sweep.ID)
	}
	if task2.DurUS < 900 {
		t.Errorf("task dur = %dus, want >= ~1ms", task2.DurUS)
	}
	if got := task2.Attrs["frac"]; got != 0.3 {
		t.Errorf("task frac = %v", got)
	}
	if got := byName["cache-lookup"].AttrInt("hits"); got != 3 {
		t.Errorf("cache-lookup hits = %d, want 3", got)
	}
	// Canonical order: sweep started first.
	if recs[0].Name != "sweep" {
		t.Errorf("first record = %q, want sweep", recs[0].Name)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	s := rec.Start(0, "x")
	s.Str("a", "b").Int("c", 1).Float("d", 2)
	if s.ID() != 0 {
		t.Error("nil span id != 0")
	}
	s.End()
	rec.Interval(0, "i", 0, time.Second).Drop()
	if rec.Now() != 0 {
		t.Error("nil Now != 0")
	}
	if rec.Writer() != "" {
		t.Error("nil Writer != empty")
	}
	if err := rec.Flush(); err != nil {
		t.Error(err)
	}
	if err := rec.Close(); err != nil {
		t.Error(err)
	}
}

func TestIntervalAndDrop(t *testing.T) {
	dir := t.TempDir()
	rec, err := OpenDir(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	rec.Interval(0, "gen", 10*time.Millisecond, 25*time.Millisecond).Int("gen", 3).End()
	rec.Interval(0, "tail", 25*time.Millisecond, 25*time.Millisecond).Drop() // dangling tail: no record
	rec.Start(0, "errored").Drop()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (dropped spans must not be journalled)", len(recs))
	}
	r := recs[0]
	if r.StartUS != 10_000 || r.DurUS != 15_000 {
		t.Errorf("interval = start %dus dur %dus, want 10000/15000", r.StartUS, r.DurUS)
	}
}

func TestAttrOverflowAndEscaping(t *testing.T) {
	dir := t.TempDir()
	rec, err := OpenDir(dir, `we"ird\name`)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Start(0, "x").Str("q", "a\"b\\c\nd\x01e\xfff")
	for i := 0; i < 2*maxAttrs; i++ {
		s.Int(fmt.Sprintf("k%d", i), int64(i)) // past maxAttrs: dropped, not corrupted
	}
	s.Float("nan", nanFloat()).End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Writer != `we"ird\name` {
		t.Errorf("writer = %q", r.Writer)
	}
	if got := r.AttrStr("q"); got != "a\"b\\c\nd\x01e�f" {
		t.Errorf("escaped attr = %q", got)
	}
	if len(r.Attrs) != maxAttrs {
		t.Errorf("attrs kept = %d, want %d", len(r.Attrs), maxAttrs)
	}
}

func nanFloat() float64 { // avoid the math import for one constant
	var z float64
	return z / z
}

func TestTornFinalLineSkipped(t *testing.T) {
	dir := t.TempDir()
	rec, err := OpenDir(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(0, "a").End()
	rec.Start(0, "b").End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	path := JournalPath(dir, "w")

	// Simulate a crash mid-append: a final line cut off partway.
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(whole, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("expected 2 full lines, got %q", whole)
	}
	torn := append(append([]byte{}, whole...), lines[0][:len(lines[0])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records after torn tail, want 2", len(recs))
	}
	for i, want := range []string{"a", "b"} {
		if recs[i].Name != want {
			t.Errorf("record %d = %q, want %q", i, recs[i].Name, want)
		}
	}

	// A journal that is nothing but garbage loads as empty, not error.
	garbled := filepath.Join(dir, "trace-garbled.jsonl")
	if err := os.WriteFile(garbled, []byte("{half a rec"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = LoadFile(garbled)
	if err != nil || len(recs) != 0 {
		t.Errorf("garbled journal: recs=%d err=%v, want 0/nil", len(recs), err)
	}
}

// TestLoadSkipsOversizedLine: a line of any length is one line. A
// journal line over 4 MiB used to fail the whole load ("token too
// long") where a corrupt line of it is skipped and a whole record kept.
func TestLoadSkipsOversizedLine(t *testing.T) {
	span := func(id int) string {
		return fmt.Sprintf(`{"w":"w","id":%d,"name":"task","start_us":%d,"dur_us":1}`+"\n", id, id)
	}
	huge := `{"w":"w","id":2,"name":"task","start_us":2,"dur_us":1,"attrs":{"pad":"` + strings.Repeat("x", 5<<20) + `"}}` + "\n"
	path := filepath.Join(t.TempDir(), "trace-w.jsonl")
	if err := os.WriteFile(path, []byte(span(1)+strings.Repeat("y", 5<<20)+"\n"+huge+span(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	if !slices.Equal(ids, []uint64{1, 2, 3}) {
		t.Fatalf("loaded span IDs %v, want [1 2 3]", ids)
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"s0of2", "s1of2"} {
		rec, err := OpenDir(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			rec.Interval(0, "task", time.Duration(j)*time.Millisecond,
				time.Duration(j+1)*time.Millisecond).
				Int("shard", int64(i)).End()
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	a := JournalPath(dir, "s0of2")
	b := JournalPath(dir, "s1of2")

	var ab, ba bytes.Buffer
	nab, err := Merge(&ab, a, b)
	if err != nil {
		t.Fatal(err)
	}
	nba, err := Merge(&ba, b, a)
	if err != nil {
		t.Fatal(err)
	}
	if nab != 10 || nba != 10 {
		t.Fatalf("merged %d / %d records, want 10", nab, nba)
	}
	if !bytes.Equal(ab.Bytes(), ba.Bytes()) {
		t.Fatal("merge output depends on argument order")
	}
	// Ordered by start time, ties broken by writer.
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].StartUS < recs[i-1].StartUS {
			t.Fatalf("record %d out of order", i)
		}
		if recs[i].StartUS == recs[i-1].StartUS && recs[i].Writer < recs[i-1].Writer {
			t.Fatalf("record %d writer tie-break out of order", i)
		}
	}
}

func TestJournalPathSanitizes(t *testing.T) {
	got := JournalPath("d", "a/b:c 1")
	if got != filepath.Join("d", "trace-a_b_c_1.jsonl") {
		t.Errorf("JournalPath = %q", got)
	}
	if got := JournalPath("d", "///"); got != filepath.Join("d", "trace-___.jsonl") {
		t.Errorf("JournalPath slashes = %q", got)
	}
	if got := JournalPath("d", ""); !strings.Contains(got, "trace-writer.jsonl") {
		t.Errorf("JournalPath empty = %q", got)
	}
}

// TestResumeAppends: sessions that open the same journal one after the
// other — a -resume into one -trace-dir, a restarted worker under its
// old name — continue it. Span IDs stay unique across sessions (so
// parent links are unambiguous), each session's window starts at or
// after the end of the one before, and the analysed wall covers all of
// them instead of overlaying them at time 0. The first session outgrows
// the tail Open reads; a corrupt line sits at the end before the last.
func TestResumeAppends(t *testing.T) {
	dir := t.TempDir()
	const sessions, perSession = 3, 2
	for run := 0; run < sessions; run++ {
		rec, err := OpenDir(dir, "w")
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			for i := 0; i < 1500; i++ { // ≈ 150 KB, twice the tail Open reads
				rec.Start(0, "filler").Str("pad", strings.Repeat("x", 60)).End()
			}
		}
		root := rec.Start(0, "sweep").Int("run", int64(run))
		for i := 0; i < perSession; i++ {
			task := rec.Start(root.ID(), "task").Int("run", int64(run))
			time.Sleep(2 * time.Millisecond)
			task.End()
		}
		root.End()
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if run == sessions-2 {
			f, err := os.OpenFile(JournalPath(dir, "w"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(f, `{"w":"w","id":7,"name":"task","start_us":99999999`)
			f.Close()
		}
	}
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	byID := map[uint64]Record{}
	var lo, hi [sessions]time.Duration // each session's window
	var sum time.Duration
	for _, r := range recs {
		if _, dup := byID[r.ID]; dup {
			t.Fatalf("span ID %d appears twice", r.ID)
		}
		byID[r.ID] = r
	}
	tasks := 0
	for _, r := range recs {
		if r.Name == "filler" {
			continue
		}
		run := r.AttrInt("run")
		if lo[run] == 0 || r.Start() < lo[run] {
			lo[run] = r.Start()
		}
		hi[run] = max(hi[run], r.End())
		if r.Name != "task" {
			continue
		}
		tasks++
		sum += r.Dur()
		if p := byID[r.Parent]; p.Name != "sweep" || p.AttrInt("run") != run {
			t.Errorf("task of session %d is parented under %q of session %d", run, p.Name, p.AttrInt("run"))
		}
	}
	if tasks != sessions*perSession {
		t.Fatalf("journal holds %d task records, want %d", tasks, sessions*perSession)
	}
	for run := 1; run < sessions; run++ {
		if lo[run] < hi[run-1] {
			t.Errorf("session %d starts at %v, inside session %d's window (ends %v)", run, lo[run], run-1, hi[run-1])
		}
	}
	if a := Analyze(recs); a.Wall < sum {
		t.Errorf("analysed wall %v is shorter than the %v the sessions' tasks took one after the other", a.Wall, sum)
	}
}

// TestReopenTrimsTornTail: a journal whose last record a crash tore is
// trimmed when it is opened again, so the first span of the new session
// starts its own line instead of fusing with the torn one, and the
// recorder hands the file whole lines however large its buffer grows.
func TestReopenTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-w.jsonl")
	names := func() []string {
		t.Helper()
		recs, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range recs {
			out = append(out, r.Name)
		}
		return out
	}

	rec, err := Open(path, "w")
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(0, "a").End()
	rec.Start(0, "b").End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil { // the crash: "b" loses its tail
		t.Fatal(err)
	}

	rec, err = Open(path, "w")
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(0, "c").End()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := names(); fmt.Sprint(got) != "[a c]" {
		t.Fatalf("journal holds %v after a torn tail and a reopen, want [a c]", got)
	}

	// A long session appends before Close: whatever has reached the file
	// must end in a newline.
	rec, err = Open(path, "w")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < 1000; i++ { // ≈ 300 KB
		rec.Start(0, "d").Str("pad", pad).End()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 100_000 || data[len(data)-1] != '\n' {
		t.Fatalf("mid-session journal is %d bytes ending in %q, want an append of whole lines", len(data), data[len(data)-1:])
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWriteFault: the journal sits on the writer seam like the
// other line logs, so a torn append surfaces at Close as the typed
// write error and leaves the file holding whole records only.
func TestJournalWriteFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-w.jsonl")
	rec, err := Open(path, "w")
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(0, "kept").End()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	restore := linelog.SetWriterSeam(chaos.NewFileFaults(1, 1.0, 0, "trace-w").Wrap) // every write: torn
	rec.Start(0, "torn").End()
	err = rec.Close()
	restore()
	var werr *linelog.WriteError
	if !errors.As(err, &werr) || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("Close over a torn append = %v, want a *linelog.WriteError wrapping io.ErrShortWrite", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "kept" || data[len(data)-1] != '\n' {
		t.Fatalf("journal after a torn append: %d records, %q", len(recs), data)
	}
}
