package swarm

import "sync"

// states recycles swarm state across runs so a benchmark series' steady
// state allocates nothing per simulation: a finished run's
// O(n·nPieces + n²) bookkeeping slabs are handed to the next run of
// the same shape and revalidated in place (the per-second assignment
// epoch is monotonic across runs, so stale assignment stamps can never
// match — see state.reset). Every Run draws from this one pool,
// concurrently. Results are byte-identical regardless of which runs
// shared a state; the golden-parity suite pins this.
var states sync.Pool

// getState returns a state ready to simulate clients under cfg: a
// pooled one of the same shape (leecher count, seeder count, piece
// count) when available, a fresh one otherwise.
func getState(clients []Client, cfg Config) *state {
	if s, _ := states.Get().(*state); s != nil {
		if s.nLeech == len(clients) && len(s.peers) == len(clients)+cfg.Seeders && s.nPieces == cfg.pieces() {
			s.reset(clients, cfg)
			return s
		}
		// Wrong shape: drop it for the GC.
	}
	return newState(clients, cfg)
}

// putState returns a state to the pool once its run has been read out.
// The caller's config (which may hold a Dist) is released so pooling
// cannot pin it.
func putState(s *state) {
	s.cfg = Config{}
	states.Put(s)
}
