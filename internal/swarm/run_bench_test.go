package swarm_test

import (
	"testing"

	"repro/internal/swarm"
)

// benchSwarmRun times run over one paper-scale swarm (50 BitTorrent
// leechers, 5 MiB file) per iteration, each on a fresh seed.
func benchSwarmRun(b *testing.B, run func([]swarm.Client, swarm.Config) (swarm.Result, error)) {
	clients := make([]swarm.Client, 50)
	for i := range clients {
		clients[i] = swarm.ClientBT
	}
	cfg := swarm.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := run(clients, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmRun measures one paper-scale swarm run: the unit of
// work of the Section 5 validation.
func BenchmarkSwarmRun(b *testing.B) { benchSwarmRun(b, swarm.Run) }

// BenchmarkSwarmRunReference is BenchmarkSwarmRun against the frozen
// pre-optimization swarm (reference_test.go), reported by
// scripts/perf_smoke.sh as an advisory ratio.
func BenchmarkSwarmRunReference(b *testing.B) { benchSwarmRun(b, Run) }
