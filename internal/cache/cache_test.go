package cache

// The store's contract: a Get only ever returns a value that was Put
// under exactly that key — across restarts, concurrent writers,
// crashes mid-append and corrupted bytes on disk. Everything here
// hammers that plus the layer mechanics (segment rotation,
// singleflight dedup).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/linelog"
)

func key(n int) Key {
	var k Key
	binary.LittleEndian.PutUint64(k[:8], uint64(n))
	return k
}

func TestMemoryRoundTrip(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("empty store hit")
	}
	s.Put(key(1), 1.5)
	if v, ok := s.Get(key(1)); !ok || v != 1.5 {
		t.Fatalf("Get = %v,%v want 1.5,true", v, ok)
	}
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("wrong key hit")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s1.Put(key(i), float64(i)*0.5)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Entries != 50 {
		t.Fatalf("reopened store has %d entries, want 50", st.Entries)
	}
	for i := 0; i < 50; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != float64(i)*0.5 {
			t.Fatalf("key %d after reopen = %v,%v", i, v, ok)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: header + 2 records.
	s, err := Open(Options{Dir: dir, segmentBytes: int64(segHeaderSize + 2*recordSize)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(key(i), float64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) < 4 {
		t.Fatalf("10 records at 2/segment left %d segments, want >= 4", len(segs))
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 10; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != float64(i) {
			t.Fatalf("key %d lost across rotation: %v,%v", i, v, ok)
		}
	}
}

// TestTornTailDropped: a crash mid-append leaves a partial record; the
// next open drops it and keeps everything before it.
func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(key(i), float64(i))
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	// Append half a record: the simulated torn write.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, recordSize/2))
	f.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Entries != 5 {
		t.Fatalf("torn tail should leave 5 entries, got %d", st.Entries)
	}
	if st.Dropped == 0 {
		t.Fatal("torn record not counted as dropped")
	}
}

// TestShortWriteKeepsSegmentAligned: a torn record append is trimmed
// back, so the records put after it still sit on the fixed-size grid the
// next open scans. The process that wrote the torn put still serves it
// from memory; after a reopen it is the one record missing.
func TestShortWriteKeepsSegmentAligned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(0), 0)
	restore := linelog.SetWriterSeam(chaos.NewFileFaults(3, 1.0, 0, "seg-").Wrap) // every segment write: torn
	s.Put(key(1), 1)
	restore()
	const later = 20
	for i := 2; i < 2+later; i++ {
		s.Put(key(i), float64(i))
	}
	for i := 0; i < 2+later; i++ {
		if v, ok := s.Get(key(i)); !ok || v != float64(i) {
			t.Fatalf("same process: Get(%d) = %v,%v, want a hit from memory", i, v, ok)
		}
	}
	if st := s.Stats(); st.Dropped != 1 || st.Entries != 2+later {
		t.Fatalf("stats = %+v, want the torn put dropped from disk and %d entries", st, 2+later)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 2+later; i++ {
		v, ok := s2.Get(key(i))
		if i == 1 {
			if ok {
				t.Fatal("after reopen: the torn put is served from disk")
			}
		} else if !ok || v != float64(i) {
			t.Fatalf("after reopen: Get(%d) = %v,%v, want a hit: records after the torn one are misaligned", i, v, ok)
		}
	}
	if st := s2.Stats(); st.Dropped != 0 || st.Entries != 1+later {
		t.Fatalf("reopened stats = %+v, want a clean segment of %d entries", st, 1+later)
	}
}

// TestPutFirstWins: the first value put for a key is the one served,
// before and after a reopen — memory and the segment log agree.
func TestPutFirstWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key(1), 1)
	s.Put(key(1), 2)
	if v, ok := s.Get(key(1)); !ok || v != 1 {
		t.Fatalf("Get = %v,%v after Put(1), Put(2); want the first value 1", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Get(key(1)); !ok || v != 1 {
		t.Fatalf("Get after reopen = %v,%v; want the first value 1", v, ok)
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes != int64(segHeaderSize+recordSize) {
		t.Fatalf("reopened stats = %+v, want one record on disk", st)
	}
}

// TestServedValuesOutliveDiskChanges: a reopened store verified each
// record once, at Open; bytes that change on disk afterwards — segments
// overwritten with garbage or truncated — change no value it serves.
func TestServedValuesOutliveDiskChanges(t *testing.T) {
	dir := t.TempDir()
	const n = 10
	s, err := Open(Options{Dir: dir, segmentBytes: int64(segHeaderSize + 2*recordSize)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Put(key(i), float64(i)+0.5)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) < 4 {
		t.Fatalf("%d records at 2/segment left %d segments, want >= 4", n, len(segs))
	}
	for i, seg := range segs {
		var err error
		if i%2 == 0 {
			err = os.WriteFile(seg, bytes.Repeat([]byte{0xa5}, segHeaderSize+2*recordSize), 0o644)
		} else {
			err = os.Truncate(seg, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if v, ok := s2.Get(key(i)); !ok || v != float64(i)+0.5 {
			t.Fatalf("Get(%d) = %v,%v after its segment changed on disk, want %v", i, v, ok, float64(i)+0.5)
		}
	}
	if st := s2.Stats(); st.Entries != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want %d entries and no drops", st, n)
	}
}

// TestCorruptRecordDropped: a flipped byte breaks that record's CRC;
// the record is dropped, its neighbours survive (fixed-size records
// keep the scan aligned).
func TestCorruptRecordDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Put(key(i), float64(i))
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the value of record 2 (records are in Put order).
	raw[segHeaderSize+2*recordSize+35] ^= 0xff
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 4 || st.Dropped == 0 {
		t.Fatalf("corrupt record: stats %+v, want 4 entries and a drop", st)
	}
	for i := 0; i < 5; i++ {
		v, ok := s2.Get(key(i))
		if i == 2 {
			if ok {
				t.Fatal("corrupted record served")
			}
			continue
		}
		if !ok || v != float64(i) {
			t.Fatalf("neighbour %d of corrupt record lost: %v,%v", i, v, ok)
		}
	}
}

// TestForeignFileRejected: pointing -cache-dir at a directory whose
// seg files are not ours must fail loudly, not serve garbage.
func TestForeignFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.log"), []byte("definitely not a cache segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("foreign segment file accepted")
	}
}

// TestConcurrentProcessesShareDir: two stores open on one directory
// (two processes in real life) each write their own segment; a later
// open merges both.
func TestConcurrentProcessesShareDir(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a.Put(key(i), float64(i))
		b.Put(key(100+i), float64(100+i))
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Entries != 40 {
		t.Fatalf("merged store has %d entries, want 40", st.Entries)
	}
	for i := 0; i < 20; i++ {
		if v, ok := s.Get(key(i)); !ok || v != float64(i) {
			t.Fatalf("writer A's key %d: %v,%v", i, v, ok)
		}
		if v, ok := s.Get(key(100 + i)); !ok || v != float64(100+i) {
			t.Fatalf("writer B's key %d: %v,%v", 100+i, v, ok)
		}
	}
}

// TestSingleflight: N concurrent GetOrCompute calls for one key run
// the computation exactly once and all see its value.
func TestSingleflight(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const goroutines = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]float64, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[g], errs[g] = s.GetOrCompute(key(7), func() (float64, error) {
				computes.Add(1)
				<-gate // hold every racer at the flight door
				return 42, nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil || vals[g] != 42 {
			t.Fatalf("goroutine %d: %v, %v", g, vals[g], errs[g])
		}
	}
}

// TestGetOrComputeErrorNotCached: a failed computation reaches every
// waiter and leaves nothing behind, so the next call retries.
func TestGetOrComputeErrorNotCached(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boom := errors.New("boom")
	if _, err := s.GetOrCompute(key(1), func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("failed computation was cached")
	}
	v, err := s.GetOrCompute(key(1), func() (float64, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry after error: %v, %v", v, err)
	}
}

// TestConcurrentMixedUse races Put/Get/GetOrCompute over a persistent
// store — the -race CI step turns any locking mistake into a failure.
func TestConcurrentMixedUse(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (g*31 + i) % 128
				switch i % 3 {
				case 0:
					s.Put(key(n), float64(n))
				case 1:
					if v, ok := s.Get(key(n)); ok && v != float64(n) {
						panic(fmt.Sprintf("key %d = %v", n, v))
					}
				default:
					v, err := s.GetOrCompute(key(n), func() (float64, error) { return float64(n), nil })
					if err != nil || v != float64(n) {
						panic(fmt.Sprintf("GetOrCompute %d = %v, %v", n, v, err))
					}
				}
			}
		}()
	}
	wg.Wait()
	_ = s.Sync()
}
