package cyclesim_test

import (
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/cyclesim"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/pra"
)

// tournamentBench is the shared setup of the cold tournament-sweep
// pair below: a deterministic robustness tournament (4 protocols × 6
// opponents, paper-scale rounds, single worker so the optimized /
// reference ratio measures the simulator, not the scheduler). "Cold"
// means every score is simulated — no score cache — which is the
// regime that bounds sweeps of new design-space regions.
func tournamentBench() (ps, opponents []design.Protocol, cfg dsa.Config) {
	ps = []design.Protocol{
		design.BitTorrent(), design.SortS(), design.MostRobustCandidate(), design.Freerider(),
	}
	opponents = []design.Protocol{
		design.BitTorrent(), design.Birds(), design.SortS(),
		design.LoyalWhenNeeded(), design.SortRandom(), design.Freerider(),
	}
	cfg = dsa.Config{Peers: 30, Rounds: 200, PerfRuns: 1, EncounterRuns: 1, Seed: 1, Workers: 1}
	return ps, opponents, cfg
}

// BenchmarkTournamentCold measures the optimized cold tournament sweep
// — the hot path of every uncached PRA quantification.
// scripts/perf_smoke.sh (run in CI) divides
// BenchmarkTournamentColdReference by this and enforces the >= 2x
// floor of the optimized simulator's headline claim.
func BenchmarkTournamentCold(b *testing.B) {
	ps, opponents, cfg := tournamentBench()
	pts, opps := pra.Points(ps), pra.Points(opponents)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pra.TournamentScores(pts, opps, 0.5, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTournamentColdReference runs the identical tournament
// against the frozen pre-optimization simulator (reference_test.go),
// mirroring pra.TournamentScores game for game and seed for seed. The
// parity suite proves both produce bit-equal camp means; this pair
// measures only the cost difference.
func BenchmarkTournamentColdReference(b *testing.B) {
	ps, opponents, cfg := tournamentBench()
	dist := bandwidth.Piatek()
	run := func() {
		for _, p := range ps {
			idA := protocolID(p)
			for _, opp := range opponents {
				idB := protocolID(opp)
				if idA == idB {
					continue
				}
				for r := 0; r < cfg.EncounterRuns; r++ {
					specs, mask := pra.EncounterSpecs(p, opp, cfg.Peers, cfg.Peers/2)
					res, err := Run(specs, cyclesim.Options{
						Rounds:      cfg.Rounds,
						Seed:        dsa.TaskSeed(cfg.Seed, idA, idB, r, 500),
						Replacement: dist,
					})
					if err != nil {
						b.Fatal(err)
					}
					a := res.GroupMean(func(i int) bool { return mask[i] })
					bm := res.GroupMean(func(i int) bool { return !mask[i] })
					_ = a > bm
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
