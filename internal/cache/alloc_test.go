//go:build !race

package cache

import (
	"runtime/debug"
	"testing"
)

// A hit is one index probe: on a store reopened from disk even the first
// hit of each key allocates nothing. Excluded under -race like the other allocation pins: the race
// runtime adds bookkeeping allocations.
func TestReopenedHitAllocs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024 // more keys than AllocsPerRun's runs: every Get is a key's first
	for i := 0; i < n; i++ {
		s.Put(key(i), float64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = key(i)
	}
	next := 0
	if avg := testing.AllocsPerRun(500, func() {
		if _, ok := s.Get(keys[next]); !ok {
			t.Fatal("miss on a reopened store")
		}
		next++
	}); avg != 0 {
		t.Errorf("a hit on a reopened store allocates %.2f per op, want 0", avg)
	}
}

// Open allocates per segment, never per record: the segments' bytes are
// read into one buffer that becomes the index, and its table is sized
// once.
func TestOpenAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Put(key(i), float64(i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// No collection during the runs: a cycle's own allocations
		// would count against the larger buffers.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, func() {
			s, err := Open(Options{Dir: dir})
			if err != nil || s.Stats().Entries != n {
				t.Fatalf("reopen of %d entries: %v", n, err)
			}
		})
	}
	if small, large := allocs(16), allocs(8192); large != small {
		t.Errorf("Open allocates %.0f times over 16 records, %.0f over 8192: want no growth with the record count", small, large)
	}
}

// Appending a new key to a non-full segment allocates nothing: the record
// buffer and the segment's writer are kept on the log. The index is sized
// up front so its growth is not counted.
func TestPutAppendAllocs(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 1024
	s.idx = newIndex(n*entrySize, n)
	s.Put(key(0), 0) // claims the segment
	next := 1
	if avg := testing.AllocsPerRun(500, func() {
		s.Put(key(next), float64(next))
		next++
	}); avg != 0 {
		t.Errorf("appending a new key allocates %.2f per op, want 0", avg)
	}
	if st := s.Stats(); st.Entries != next || st.Dropped != 0 {
		t.Fatalf("after %d puts: %+v", next, st)
	}
}
