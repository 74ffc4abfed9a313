package swarm

import "testing"

// BenchmarkSwarmSecond measures one steady-state simulated second —
// transfer plus the periodic rechoke share — of a busy 50-leecher
// mixed-client swarm: the innermost unit of the Section 5 validation.
// Steady state must allocate nothing (pinned by
// TestTransferLoopAllocFree).
func BenchmarkSwarmSecond(b *testing.B) {
	cfg := Default()
	cfg.FileKiB = 256 * 1024 // large file: the swarm stays busy for the whole measurement
	clients := make([]Client, 50)
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
	for sec < 60 {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	if s.remaining == 0 {
		b.Fatal("swarm drained during measurement; enlarge the file")
	}
}

// BenchmarkSwarmRunPooled measures a whole Section 5 run (50 BT
// leechers, 5 MiB file) on a warm pool.
func BenchmarkSwarmRunPooled(b *testing.B) {
	cfg := Default()
	clients := make([]Client, 50)
	for i := range clients {
		clients[i] = ClientBT
	}
	if _, err := Run(clients, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(clients, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
