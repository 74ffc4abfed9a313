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
// A Store layers three mechanisms behind the dsa.ScoreCache interface:
//
//   - a sharded in-memory LRU — the hot path, uncontended under the
//     job engine's worker pools;
//   - an append-only on-disk segment log (see disk.go) — survives
//     restarts, shareable between concurrent processes, CRC-checked so
//     corruption degrades to misses, never wrong hits;
//   - singleflight deduplication — concurrent GetOrCompute calls for
//     one key run the computation once and share the result.
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

// Default sizing for Options zero values.
const (
	DefaultMemEntries = 1 << 20 // ~48 MiB of resident scores
	defaultShards     = 16
)

// Options configures a Store.
type Options struct {
	// Dir is the segment log directory; "" keeps the cache in memory
	// only. Any number of processes may share one directory (each
	// writes its own segments); a process sees entries other processes
	// wrote before it opened the directory.
	Dir string
	// MemEntries bounds the in-memory LRU layer. 0 = DefaultMemEntries.
	MemEntries int
	// shards and segmentBytes override the LRU shard count and the
	// on-disk segment rotation threshold (0 = defaultShards,
	// defaultSegmentBytes): constants to every caller, reachable only by this
	// package's tests.
	shards       int
	segmentBytes int64
}

// Store is a concurrency-safe score cache. It implements
// dsa.ScoreCache.
type Store struct {
	mem *lruShards

	diskMu sync.Mutex
	disk   *diskLog // nil when memory-only

	flightMu sync.Mutex
	flight   map[Key]*flightCall

	hits, misses, puts, evictions, dropped, flights, flightWaits atomic.Uint64
}

type flightCall struct {
	done chan struct{}
	val  float64
	err  error
}

// Open creates a Store. With a directory, every valid record already
// on disk is indexed before Open returns (corrupt or torn records are
// dropped and counted, never served).
func Open(opts Options) (*Store, error) {
	if opts.MemEntries <= 0 {
		opts.MemEntries = DefaultMemEntries
	}
	if opts.shards <= 0 {
		opts.shards = defaultShards
	}
	s := &Store{
		mem:    newLRUShards(opts.shards, opts.MemEntries),
		flight: map[Key]*flightCall{},
	}
	if opts.Dir != "" {
		disk, err := openDiskLog(opts.Dir, opts.segmentBytes)
		if err != nil {
			return nil, err
		}
		s.disk = disk
	}
	return s, nil
}

// Get returns the cached score for k, consulting the LRU first and
// the segment log second (promoting disk hits into the LRU).
func (s *Store) Get(k Key) (float64, bool) {
	if v, ok := s.mem.get(k); ok {
		s.hits.Add(1)
		return v, true
	}
	if s.disk != nil {
		s.diskMu.Lock()
		v, ok := s.disk.get(k)
		s.diskMu.Unlock()
		if ok {
			s.evictions.Add(uint64(s.mem.put(k, v)))
			s.hits.Add(1)
			return v, true
		}
	}
	s.misses.Add(1)
	return 0, false
}

// Put records the score for k in every layer. Disk trouble is
// deliberately non-fatal — the entry stays served from memory and the
// failure is counted in Stats.Dropped; a cache must never turn an
// otherwise healthy sweep into an error.
func (s *Store) Put(k Key, v float64) {
	s.puts.Add(1)
	s.evictions.Add(uint64(s.mem.put(k, v)))
	if s.disk != nil {
		s.diskMu.Lock()
		err := s.disk.put(k, v)
		s.diskMu.Unlock()
		if err != nil {
			s.dropped.Add(1)
		}
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
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	return s.disk.sync()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	st := Stats{
		MemEntries: s.mem.len(),
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Puts:       s.puts.Load(),
		Evictions:  s.evictions.Load(),
		Dropped:    s.dropped.Load(),
		Flights:    s.flights.Load(),
		FlightWait: s.flightWaits.Load(),
	}
	if s.disk != nil {
		s.diskMu.Lock()
		st.Entries = len(s.disk.index)
		st.Bytes = s.disk.total
		// The disk layer's counter is read live, not snapshotted at
		// Open: records dropped by later reads (latent corruption
		// detected on Get) must show up too.
		st.Dropped += s.disk.dropped
		s.diskMu.Unlock()
	} else {
		st.Entries = st.MemEntries
	}
	return st
}

// Close syncs and releases the on-disk layer. The Store must not be
// used after Close.
func (s *Store) Close() error {
	if s.disk == nil {
		return nil
	}
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	return s.disk.close()
}

// Interface conformance: Store is the dsa.ScoreCache the engine seams
// accept.
var _ dsa.ScoreCache = (*Store)(nil)
