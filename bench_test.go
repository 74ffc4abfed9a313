// Benchmarks: one per table and figure of the paper (see the
// experiment index in DESIGN.md), plus micro-benchmarks of the two
// simulators' inner loops. Benchmark scales are reduced so the whole
// suite runs in seconds; the cmd tools run the same drivers at
// quick/paper scale.
package repro

import (
	"context"
	"testing"

	"repro/internal/analytic"
	"repro/internal/bandwidth"
	cachepkg "repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/cyclesim/refsim"
	"repro/internal/delivery"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/exp"
	"repro/internal/game"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/pra"
	"repro/internal/swarm"
	"repro/internal/swarm/refswarm"
)

// benchCfg is the reduced PRA configuration shared by the figure
// benchmarks.
func benchCfg() dsa.Config {
	return dsa.Config{Peers: 16, Rounds: 60, PerfRuns: 1, EncounterRuns: 1, Opponents: 8, Seed: 1}
}

// benchProtocols is a small representative protocol set.
func benchProtocols() []design.Protocol {
	ps := []design.Protocol{
		design.BitTorrent(), design.Birds(), design.LoyalWhenNeeded(),
		design.SortS(), design.MostRobustCandidate(), design.Freerider(),
	}
	all := Protocols()
	for i := 0; i < len(all); i += 300 {
		ps = append(ps, all[i])
	}
	return ps
}

// benchSweep memoises one sweep for the figure-extraction benchmarks.
var benchSweepCache *exp.SweepResult

func benchSweep(b *testing.B) *exp.SweepResult {
	b.Helper()
	if benchSweepCache == nil {
		r, err := exp.Sweep(benchProtocols(), benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		benchSweepCache = r
	}
	return benchSweepCache
}

// BenchmarkFig1Games measures the Section 2.1 game analysis: building
// the BitTorrent and Birds dilemmas and finding dominance and Nash
// equilibria.
func BenchmarkFig1Games(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bt, err := game.BitTorrentDilemma(100, 20)
		if err != nil {
			b.Fatal(err)
		}
		birds, err := game.BirdsDilemma(100, 20)
		if err != nil {
			b.Fatal(err)
		}
		_ = bt.PureNash()
		_ = birds.PureNash()
		bt.DominantRow(game.Defect)
		birds.DominantCol(game.Defect)
	}
}

// BenchmarkTable1NashModel measures the Section 2.2 analytical model
// plus the Appendix deviation analysis over the full default grid.
func BenchmarkTable1NashModel(b *testing.B) {
	grid := analytic.DefaultGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.CheckBTNash(grid); err != nil {
			b.Fatal(err)
		}
		if _, err := analytic.CheckBirdsNash(grid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Sweep measures the full PRA pipeline (performance sweep
// plus robustness and aggressiveness tournaments) that generates the
// Figure 2 scatter, at reduced scale.
func BenchmarkFig2Sweep(b *testing.B) {
	ps := benchProtocols()[:6]
	cfg := benchCfg()
	cfg.Opponents = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Sweep(ps, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Heat measures the Figure 3 performance-by-k extraction.
func BenchmarkFig3Heat(b *testing.B) {
	r := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fig3(10)
	}
}

// BenchmarkFig4Heat measures the Figure 4 robustness-by-k extraction.
func BenchmarkFig4Heat(b *testing.B) {
	r := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fig4(10)
	}
}

// BenchmarkFig5CCDF measures the Figure 5 stranger-policy CCDFs.
func BenchmarkFig5CCDF(b *testing.B) {
	r := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fig5()
	}
}

// BenchmarkFig6Fig7Groups measures the Figures 6-7 group extraction.
func BenchmarkFig6Fig7Groups(b *testing.B) {
	r := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Fig6()
		_ = r.Fig7()
	}
}

// BenchmarkFig8Pearson measures the Figure 8 correlation.
func BenchmarkFig8Pearson(b *testing.B) {
	r := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Regression measures the three OLS fits of Table 3
// (dummy coding, QR factorisation, inference).
func BenchmarkTable3Regression(b *testing.B) {
	r := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate9010 measures the §4.3.2 90-10 robustness
// validation tournament.
func BenchmarkValidate9010(b *testing.B) {
	r := benchSweep(b)
	cfg := benchCfg()
	cfg.Opponents = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.Validate9010(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnSweep measures the §4.4 churn sensitivity experiment.
func BenchmarkChurnSweep(b *testing.B) {
	ps := benchProtocols()[:6]
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ChurnSweep(ps, []float64{0.01}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSwarmCfg is a reduced swarm setup for the Figure 9-10 benches.
func benchSwarmCfg() swarm.Config {
	cfg := swarm.Default()
	cfg.FileKiB = 1024
	cfg.PieceKiB = 128
	return cfg
}

// BenchmarkFig9aEncounters measures the Figure 9(a) series
// (Loyal-When-needed vs BitTorrent) at reduced scale.
func BenchmarkFig9aEncounters(b *testing.B) {
	cfg := benchSwarmCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9a(12, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9bEncounters measures Figure 9(b) (Birds vs BitTorrent).
func BenchmarkFig9bEncounters(b *testing.B) {
	cfg := benchSwarmCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9b(12, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9cEncounters measures Figure 9(c) (Loyal-When-needed vs
// Birds).
func BenchmarkFig9cEncounters(b *testing.B) {
	cfg := benchSwarmCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9c(12, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Homogeneous measures the Figure 10 homogeneous-swarm
// comparison across all five client variants.
func BenchmarkFig10Homogeneous(b *testing.B) {
	cfg := benchSwarmCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(12, 1, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCyclesimRun measures the Section 4.3.1 cycle simulator at
// paper scale (50 peers, 500 rounds): the unit of work behind the 107
// million runs of the full PRA quantification.
func BenchmarkCyclesimRun(b *testing.B) {
	caps := bandwidth.Piatek().Stratified(50)
	specs := make([]cyclesim.PeerSpec, 50)
	for i := range specs {
		specs[i] = cyclesim.PeerSpec{Protocol: design.BitTorrent(), Capacity: caps[i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cyclesim.Run(specs, cyclesim.Options{Rounds: 500, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncounter measures a single 50/50 PRA encounter at paper
// scale.
func BenchmarkEncounter(b *testing.B) {
	cfg := pra.Paper()
	cfg.Seed = 1
	for i := 0; i < b.N; i++ {
		if _, _, err := pra.Encounter(design.BitTorrent(), design.Freerider(), 0.5, cfg, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmRun measures one paper-scale swarm run (50 leechers,
// 5 MiB file): the unit of work of the Section 5 validation.
func BenchmarkSwarmRun(b *testing.B) {
	clients := make([]swarm.Client, 50)
	for i := range clients {
		clients[i] = swarm.ClientBT
	}
	cfg := swarm.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := swarm.Run(clients, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// tournamentBench is the shared setup of the cold tournament-sweep
// pair below: a deterministic robustness tournament (4 protocols × 6
// opponents, paper-scale rounds, single worker so the optimized /
// reference ratio measures the simulator, not the scheduler). "Cold"
// means every score is simulated — no PR 4 cache — which is the
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
// floor of the PR 5 headline claim.
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

// protocolID is p's point ID in the swarming domain, the identity its
// seeds derive from.
func protocolID(b *testing.B, p design.Protocol) int {
	id, err := pra.Domain().PointID(pra.ToPoint(p))
	if err != nil {
		b.Fatal(err)
	}
	return id
}

// BenchmarkTournamentColdReference runs the identical tournament
// against the frozen pre-optimization simulator (refsim), mirroring
// pra.TournamentScores game for game and seed for seed. The parity
// suite proves both produce bit-equal camp means; this pair measures
// only the cost difference.
func BenchmarkTournamentColdReference(b *testing.B) {
	ps, opponents, cfg := tournamentBench()
	dist := bandwidth.Piatek()
	run := func() {
		for _, p := range ps {
			idA := protocolID(b, p)
			for _, opp := range opponents {
				idB := protocolID(b, opp)
				if idA == idB {
					continue
				}
				for r := 0; r < cfg.EncounterRuns; r++ {
					specs, mask := pra.EncounterSpecs(p, opp, cfg.Peers, cfg.Peers/2)
					res, err := refsim.Run(specs, cyclesim.Options{
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

// BenchmarkSwarmRunReference is BenchmarkSwarmRun against the frozen
// pre-optimization swarm (refswarm), the second half of the PR 5 perf
// trajectory (reported by scripts/perf_smoke.sh, advisory).
func BenchmarkSwarmRunReference(b *testing.B) {
	clients := make([]swarm.Client, 50)
	for i := range clients {
		clients[i] = swarm.ClientBT
	}
	cfg := swarm.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := refswarm.Run(clients, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipRun measures one gossip-domain run (the Section 3.1 /
// Section 7 extension).
func BenchmarkGossipRun(b *testing.B) {
	p := gossip.Protocol{Selection: gossip.SelBest, Period: 1, Fanout: 2,
		Filter: gossip.FilterNewest, Record: gossip.RecordKeepAll}
	protos := make([]gossip.Protocol, 30)
	for i := range protos {
		protos[i] = p
	}
	opt := gossip.DefaultOptions()
	opt.Nodes = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i)
		if _, err := gossip.Run(protos, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignEnumerate measures enumeration of the 3270-protocol
// space — the constraint over every candidate of a fresh pra.Space —
// with the last point's ID round-trip.
func BenchmarkDesignEnumerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		all := pra.Space().Enumerate()
		if id, err := pra.Domain().PointID(all[len(all)-1]); err != nil || id != len(all)-1 {
			b.Fatal("enumeration broken")
		}
	}
}

// benchExploreCfg is the explorer workload of the cache benchmarks:
// small enough to iterate, big enough that real simulation dominates a
// cold run.
func benchExploreCfg() dsa.Config {
	return dsa.Config{Peers: 10, Rounds: 60, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 1}
}

func benchExplore(b *testing.B, store *cachepkg.Store) {
	b.Helper()
	var sc dsa.ScoreCache
	if store != nil {
		sc = store
	}
	_, _, err := job.HillClimb(context.Background(), gossip.Domain(), job.Weights{gossip.MeasureCoverage: 1},
		benchExploreCfg(), job.HillClimbConfig{Restarts: 2, MaxSteps: 15, Seed: 3}, sc, nil)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExplorerColdCache is the baseline of the PR 4 headline
// claim: each iteration is a full Section 7 hill climb with every
// score simulated (no cache). Compare against
// BenchmarkExplorerWarmCache — the warm/cold ns/op ratio is the
// measured speedup (CI asserts >= 5x in scripts/cache_smoke.sh).
func BenchmarkExplorerColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchExplore(b, nil)
	}
}

// BenchmarkExplorerWarmCache runs the identical hill climb against a
// pre-warmed content-addressed score cache: every evaluation is a key
// derivation plus a map hit, no simulation at all. Results are
// byte-identical to the cold run (asserted by the dsa and job parity
// tests); only the cost changes.
func BenchmarkExplorerWarmCache(b *testing.B) {
	store, err := cachepkg.Open(cachepkg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	benchExplore(b, store) // warm every score the search will touch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchExplore(b, store)
	}
}

// BenchmarkCachedSweepWarm measures the engine-level seam: a full
// job.Run of a 28-point gossip sweep where every score is served from
// the cache (checkpointing off, simulation skipped).
func BenchmarkCachedSweepWarm(b *testing.B) {
	d := gossip.Domain()
	all := d.Space().Enumerate()
	var pts []core.Point
	for i := 0; i < len(all); i += 8 {
		pts = append(pts, all[i])
	}
	cfg := benchExploreCfg()
	store, err := cachepkg.Open(cachepkg.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	if _, err := job.Run(ctx, d, pts, cfg, job.Options{Chunk: 4, Cache: store}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.Run(ctx, d, pts, cfg, job.Options{Chunk: 4, Cache: store}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryRun measures one simulated download of the delivery
// domain (honest scenario, racing strategy) — the inner loop of every
// delivery measure.
func BenchmarkDeliveryRun(b *testing.B) {
	s := delivery.Strategy{Selection: delivery.SelBalanced, Fanout: 4,
		Racing: delivery.RaceWithFallback, Timeout: delivery.TimeoutAdaptive}
	opt := delivery.DefaultOptions()
	opt.Peers = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i)
		if _, err := delivery.Run(s, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliveryScoreSlice measures the delivery domain's ScoreSlice
// across all four measures on a 12-point slice — the task unit the job
// engine shards, and the cost a warm score cache saves.
func BenchmarkDeliveryScoreSlice(b *testing.B) {
	d := delivery.Domain()
	cfg := dsa.Config{Peers: 8, Rounds: 300, PerfRuns: 2, EncounterRuns: 1, Seed: 1, Workers: 1}
	pts := dsa.StridePoints(d, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := map[string][]float64{}
		for _, m := range d.Measures() {
			vals, err := d.ScoreSlice(m, pts, nil, cfg)
			if err != nil {
				b.Fatal(err)
			}
			raw[m] = vals
		}
		if _, err := d.Assemble(pts, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// deliverySweepBench is the input of the joint/per-measure pair below:
// all four measures over the whole delivery space (576 points — enough
// work per iteration that perf_smoke's 3x runs read steadily).
func deliverySweepBench() (dsa.Domain, []core.Point, dsa.Config) {
	d := delivery.Domain()
	return d, d.Space().Enumerate(), dsa.Config{Peers: 8, Rounds: 300, PerfRuns: 3, EncounterRuns: 1, Seed: 1, Workers: 1}
}

// BenchmarkDeliverySweepJoint scores the four delivery measures in one
// dsa.ScoreSlices call — what job.ExecTasks does with a chunk's tasks:
// each point's nominal downloads run once and its stress downloads
// once, 2·PerfRuns per point.
func BenchmarkDeliverySweepJoint(b *testing.B) {
	d, pts, cfg := deliverySweepBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsa.ScoreSlices(d, d.Measures(), pts, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliverySweepPerMeasure scores the same measures over the
// same points one ScoreSlice call at a time, 5·PerfRuns downloads per
// point. scripts/perf_smoke.sh holds the pair to a floor, so the
// sharing cannot quietly stop happening.
func BenchmarkDeliverySweepPerMeasure(b *testing.B) {
	d, pts, cfg := deliverySweepBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range d.Measures() {
			if _, err := d.ScoreSlice(m, pts, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGossipDomainSweep measures a small gossip sweep through the
// generic domain engine (enumeration → ScoreSlice → Assemble), the
// path dsa-sweep -domain gossip takes.
func BenchmarkGossipDomainSweep(b *testing.B) {
	d := gossip.Domain()
	cfg := dsa.Config{Peers: 10, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 1}
	all := d.Space().Enumerate()
	pts := all[:12]
	opponents := d.SampleOpponents(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := map[string][]float64{}
		for _, m := range d.Measures() {
			vals, err := d.ScoreSlice(m, pts, opponents, cfg)
			if err != nil {
				b.Fatal(err)
			}
			raw[m] = vals
		}
		if _, err := d.Assemble(pts, raw); err != nil {
			b.Fatal(err)
		}
	}
}
