//go:build !race

// The race detector's instrumentation allocates, so these exact
// allocation-count pins only run in non-race builds (CI runs both
// modes; the parity suites run under -race as usual).

package swarm

// Steady-state allocation pins for the transfer loop. In-package (they
// drive state.transfer/rechoke directly); the byte-identity parity
// suite lives in parity_test.go in the external test package, because
// the frozen reference (reference_test.go) imports this package's types.

import (
	"testing"

	"repro/internal/obs"
)

// TestTransferLoopAllocFree pins the per-second steady state —
// transfer plus the periodic rechoke, i.e. everything inside Run's
// clock loop — at exactly 0 allocations, over a mixed-client swarm so
// every ranking's insertion sort, the optimistic-unchoke scratch and
// the want-list maintenance are all exercised.
func TestTransferLoopAllocFree(t *testing.T) {
	cfg := Default()
	cfg.FileKiB = 64 * 1024 // big enough that the swarm stays busy throughout
	cfg.PieceKiB = 128
	clients := make([]Client, 30)
	for i := range clients {
		clients[i] = Client(i % int(numClients))
	}
	s := newState(clients, cfg)
	sec := 0
	tick := func() {
		if sec%cfg.ChokeIntervalS == 0 {
			s.rechoke(sec / cfg.ChokeIntervalS)
		}
		s.transfer(sec)
		sec++
	}
	for sec < 60 { // warm scratch capacities and rate history
		tick()
	}
	if avg := testing.AllocsPerRun(300, tick); avg != 0 {
		t.Errorf("transfer loop allocates %v objects/second in steady state, want 0", avg)
	}
	if s.remaining == 0 {
		t.Fatal("swarm finished during measurement; enlarge the file so the steady state is real")
	}
}

// TestTransferLoopAllocFreeWithRecorder pins the observability
// contract at the swarm simulator's hot path: the per-second steady
// state stays at 0 allocations with a journaling obs recorder live —
// even journaling a span every simulated second (far finer than
// production, which records at the task level). Tracing a sweep
// cannot regress the PR 5 hot-path guarantees.
func TestTransferLoopAllocFreeWithRecorder(t *testing.T) {
	rec, err := obs.OpenDir(t.TempDir(), "alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	cfg := Default()
	cfg.FileKiB = 64 * 1024
	cfg.PieceKiB = 128
	clients := make([]Client, 30)
	for i := range clients {
		clients[i] = Client(i % int(numClients))
	}
	s := newState(clients, cfg)
	sec := 0
	tick := func() {
		sp := rec.Start(0, "second").Int("sec", int64(sec))
		if sec%cfg.ChokeIntervalS == 0 {
			s.rechoke(sec / cfg.ChokeIntervalS)
		}
		s.transfer(sec)
		sp.End()
		sec++
	}
	for sec < 60 { // steady state for swarm and recorder both
		tick()
	}
	if avg := testing.AllocsPerRun(300, tick); avg != 0 {
		t.Errorf("transfer loop with live recorder allocates %v objects/second, want 0", avg)
	}
	if s.remaining == 0 {
		t.Fatal("swarm finished during measurement; enlarge the file so the steady state is real")
	}
}

// TestPooledRunAllocsSwarm pins a whole pooled Run at the per-run
// result and capacity draws only — the state must come back from the
// package's pool without slab reallocation.
func TestPooledRunAllocsSwarm(t *testing.T) {
	cfg := Default()
	cfg.FileKiB = 512
	cfg.PieceKiB = 128
	clients := make([]Client, 12)
	for i := range clients {
		clients[i] = ClientBT
	}
	if _, err := Run(clients, cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	seed := int64(2)
	avg := testing.AllocsPerRun(30, func() {
		cfg.Seed = seed
		if _, err := Run(clients, cfg); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	// Result.Times plus the stratified capacity draw (one slice in
	// Stratified, one in SampleN) are the only per-run allocations.
	if avg > 4 {
		t.Errorf("pooled Run allocates %v objects/run, want <= 4", avg)
	}
}
