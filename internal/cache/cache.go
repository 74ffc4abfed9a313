// Package cache is the content-addressed score store behind -cache-dir:
// memoization for every evaluation seam of the sweep machinery.
//
// Design-space analysis re-evaluates the same scores constantly —
// explorers revisit neighbours, resumed and re-shaped sweeps recompute
// panels, grid jobs with overlapping specs redo identical work. The
// determinism contract of dsa.Domain makes a raw score a pure function
// of its dsa.CacheKey (domain, domain score version, measure, point
// ID, opponent panel, score-relevant config — see dsa.NewScoreKeyer),
// which is exactly the precondition for safe memoization: compute
// once, reuse everywhere, byte-identical by construction.
//
// A Store is two mechanisms behind the dsa.ScoreCache interface:
//
//   - one in-memory index of every score it can serve (see index.go):
//     the entries back to back plus a flat open-addressed table over
//     them — a Get is one read-locked probe;
//   - an append-only on-disk segment log (see disk.go) — survives
//     restarts, shareable between concurrent processes, CRC-checked
//     once, by the scan at Open whose buffer becomes the index, so
//     corruption degrades to misses, never wrong hits. After Open it is
//     only appended to.
//
// GetOrCompute adds singleflight deduplication (concurrent calls for one
// key run the computation once); no engine layer calls it.
//
// A Store with no directory is memory-only: same interface, no
// persistence — what an in-process explorer wants.
//
// The store counts and nothing else: Stats holds its totals, and which
// task a hit or miss belonged to is the job engine's "task" span
// (cache_hits / simulated), so this package knows no tracer.
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/dsa"
)

// Key is the content address of one score (see dsa.NewScoreKeyer for
// the derivation).
type Key = dsa.CacheKey

// Stats is a point-in-time snapshot of a Store's counters.
type Stats = dsa.CacheStats

// Options configures a Store.
type Options struct {
	// Dir is the segment log directory; "" keeps the cache in memory
	// only. Any number of processes may share one directory (each
	// writes its own segments); a process sees entries other processes
	// wrote before it opened the directory.
	Dir string
	// MemEntries is ignored: a Store holds every score it can serve in
	// memory. The field stays only because bench/ still sets it.
	MemEntries int
	// segmentBytes overrides the on-disk segment rotation threshold
	// (0 = defaultSegmentBytes): a constant to every caller, reachable
	// only by this package's tests.
	segmentBytes int64
}

// Store is a concurrency-safe score cache. It implements
// dsa.ScoreCache.
type Store struct {
	mu  sync.RWMutex
	idx index

	appendMu sync.Mutex
	disk     *diskLog // nil when memory-only

	flightMu sync.Mutex
	flight   map[Key]*flightCall

	hits, misses, puts, dropped, flights, flightWaits atomic.Uint64
}

type flightCall struct {
	done chan struct{}
	val  float64
	err  error
}

// Open creates a Store. With a directory, every record already on disk
// is read and CRC-verified once, into memory, before Open returns
// (corrupt or torn records are dropped and counted, never served).
func Open(opts Options) (*Store, error) {
	s := &Store{flight: map[Key]*flightCall{}}
	if opts.Dir == "" {
		s.idx = newIndex(0, 0)
		return s, nil
	}
	disk, idx, dropped, err := openDiskLog(opts.Dir, opts.segmentBytes)
	if err != nil {
		return nil, err
	}
	s.disk, s.idx = disk, idx
	s.dropped.Store(dropped)
	return s, nil
}

// Get returns the cached score for k.
func (s *Store) Get(k Key) (float64, bool) {
	s.mu.RLock()
	v, ok := s.idx.get(&k)
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put records the score for k. The first value recorded for a key wins,
// in memory and on disk alike: values never change (a key hashes
// everything score-relevant), so a later Put of a known key is a no-op.
// Disk trouble is deliberately non-fatal — the entry stays served from
// memory and the failure is counted in Stats.Dropped; a cache must never
// turn an otherwise healthy sweep into an error.
func (s *Store) Put(k Key, v float64) {
	s.puts.Add(1)
	s.mu.Lock()
	added := s.idx.add(k, v)
	s.mu.Unlock()
	if !added || s.disk == nil {
		return
	}
	s.appendMu.Lock()
	err := s.disk.put(k, v)
	s.appendMu.Unlock()
	if err != nil {
		s.dropped.Add(1)
	}
}

// GetOrCompute returns the cached score for k or computes, caches and
// returns it. Concurrent calls for the same key compute once: the
// first caller runs compute, the rest wait and share its result. A
// compute error is handed to every waiter and nothing is cached, so a
// transient failure is retried by the next call.
func (s *Store) GetOrCompute(k Key, compute func() (float64, error)) (float64, error) {
	if v, ok := s.Get(k); ok {
		return v, nil
	}
	s.flightMu.Lock()
	if c, ok := s.flight[k]; ok {
		s.flightMu.Unlock()
		s.flightWaits.Add(1)
		<-c.done
		return c.val, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[k] = c
	s.flightMu.Unlock()

	// Re-check under flight ownership: another goroutine may have
	// completed (and retired) its flight between our Get and our
	// registration.
	if v, ok := s.Get(k); ok {
		c.val = v
	} else {
		s.flights.Add(1)
		c.val, c.err = compute()
		if c.err == nil {
			s.Put(k, c.val)
		}
	}
	s.flightMu.Lock()
	delete(s.flight, k)
	s.flightMu.Unlock()
	close(c.done)
	return c.val, c.err
}

// Sync flushes the active on-disk segment to stable storage. Put
// batches durability (the segment is synced on rotation and Close);
// call Sync at natural barriers — e.g. after a sweep completes.
func (s *Store) Sync() error {
	if s.disk == nil {
		return nil
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	return s.disk.sync()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := s.idx.len()
	s.mu.RUnlock()
	st := Stats{
		Entries:    entries,
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Puts:       s.puts.Load(),
		Dropped:    s.dropped.Load(),
		Flights:    s.flights.Load(),
		FlightWait: s.flightWaits.Load(),
	}
	if s.disk != nil {
		s.appendMu.Lock()
		st.Bytes = s.disk.total
		s.appendMu.Unlock()
	}
	return st
}

// Close syncs and releases the on-disk layer. The Store must not be
// used after Close.
func (s *Store) Close() error {
	if s.disk == nil {
		return nil
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	return s.disk.close()
}

// Interface conformance: Store is the dsa.ScoreCache the engine seams
// accept.
var _ dsa.ScoreCache = (*Store)(nil)
