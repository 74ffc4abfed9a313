//go:build !race

package obs

import "testing"

// These pins are the package's second contract: recording is
// allocation-free in steady state, so the PR 5 hot-path guarantees
// (0 allocs per simulated round) hold with tracing on. The warmup
// pass grows the freelist and the line buffer; after it, a span's
// whole life — Start, attributes, End, journal append — must not
// allocate. Excluded under -race like the cyclesim/swarm pins: the
// race runtime adds bookkeeping allocations.

func TestSpanAllocsJournaled(t *testing.T) {
	rec, err := OpenDir(t.TempDir(), "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	span := func() {
		s := rec.Start(0, "task")
		s.Str("measure", "perf").Int("points", 8).Int("cache_hits", 3).
			Int("simulated", 5).Float("frac", 0.625)
		s.End()
	}
	for i := 0; i < 100; i++ { // warmup: freelist + line buffer reach steady state
		span()
	}
	if avg := testing.AllocsPerRun(500, span); avg != 0 {
		t.Errorf("journaled span allocates %.2f per op, want 0", avg)
	}
}

func TestNilRecorderAllocs(t *testing.T) {
	var rec *Recorder
	op := func() {
		s := rec.Start(0, "task")
		s.Str("a", "b").Int("c", 1)
		s.End()
	}
	if avg := testing.AllocsPerRun(500, op); avg != 0 {
		t.Errorf("nil recorder allocates %.2f per op, want 0", avg)
	}
}
