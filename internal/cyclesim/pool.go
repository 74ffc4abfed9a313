package cyclesim

import "sync"

// worlds recycles world state across runs so a sweep's steady state
// allocates nothing per simulation: the O(n²) history slabs of a
// finished run are handed to the next run of the same population size
// and revalidated in O(n) (see world.reset — stamp monotonicity does
// the rest). Every Run draws from this one pool — pra sweeps,
// job.ExecTasks workers, the grid — concurrently. Results are
// byte-identical regardless of which runs shared a world; the
// golden-parity suite pins this.
var worlds sync.Pool

// getWorld returns a world ready to simulate peers from seed: a pooled
// one of the right size when available (reset in O(n)), a fresh one
// otherwise. Worlds whose absolute round counter would pass maxRound
// within this run are retired — the replacement starts a fresh stamp
// epoch.
func getWorld(peers []PeerSpec, seed int64, rounds int) *world {
	if w, _ := worlds.Get().(*world); w != nil {
		if w.n == len(peers) && w.round+runGap+int32(rounds) < maxRound {
			w.reset(peers, seed)
			return w
		}
		// Wrong size or epoch exhausted: drop it for the GC.
	}
	return newWorld(peers, seed)
}

// putWorld returns a world to the pool once its run has been read out.
// The caller's spec slice is released so pooling cannot pin it.
func putWorld(w *world) {
	w.specs = nil
	worlds.Put(w)
}
