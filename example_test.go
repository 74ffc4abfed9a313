package repro_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"repro"
	"repro/internal/analytic"
	"repro/internal/delivery"
	"repro/internal/design"
	"repro/internal/game"
	"repro/internal/job"
	"repro/internal/pra"
)

// The Section 2 story: BitTorrent as a strategy in an iterated game
// between bandwidth classes, the opportunity-cost payoff change that
// produces Birds, and the Appendix equilibrium claims checked
// numerically.
func Example_birds() {
	const fast, slow = 100.0, 20.0

	// Figure 1(a): under BitTorrent's implicit payoffs the slow peer's
	// dominant strategy is to cooperate with the fast peer — the
	// Dictator-game flavour the paper calls the BitTorrent Dilemma.
	bt, err := game.BitTorrentDilemma(fast, slow)
	if err != nil {
		log.Fatal(err)
	}
	// String ends each row with a blank, which an Output block cannot hold.
	fmt.Print(strings.ReplaceAll(bt.String(), " \n", "\n"))
	weakD, _ := bt.DominantRow(game.Defect)
	weakC, _ := bt.DominantCol(game.Cooperate)
	fmt.Printf("fast defects (dominant: %v), slow cooperates (dominant: %v)\n\n", weakD, weakC)

	// Figure 1(c): charging the slow peer the opportunity cost of
	// cross-class cooperation flips its dominant strategy to defection
	// — "birds of a feather stick together".
	birds, err := game.BirdsDilemma(fast, slow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(strings.ReplaceAll(birds.String(), " \n", "\n"))
	weakD2, strict := birds.DominantCol(game.Defect)
	fmt.Printf("slow now defects too (dominant: %v, strict: %v)\n\n", weakD2, strict)

	// The iterated view: a fast AllD free-rides on a slow AllC in the
	// repeated BitTorrent Dilemma — Locher et al.'s exploit in one line.
	match := game.PlayMatch(bt, game.AllD{}, game.AllC{}, 100, rand.New(rand.NewSource(1)))
	fmt.Printf("iterated BT Dilemma over %d rounds: fast AllD scores %.0f, slow AllC scores %.0f\n\n",
		match.Rounds, match.RowScore, match.ColScore)

	// Section 2.2 / Appendix: expected game wins and equilibrium
	// verdicts across the parameter grid.
	p := analytic.Params{NA: 20, NB: 15, NC: 15, Ur: 4}
	btW, err := analytic.BitTorrent(p)
	if err != nil {
		log.Fatal(err)
	}
	birdsW, err := analytic.Birds(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected wins per period (NA=%d NB=%d NC=%d Ur=%d):\n", p.NA, p.NB, p.NC, p.Ur)
	fmt.Printf("  BitTorrent: %.3f   Birds: %.3f\n", btW.Total(), birdsW.Total())

	grid := analytic.DefaultGrid()
	vBT, err := analytic.CheckBTNash(grid)
	if err != nil {
		log.Fatal(err)
	}
	vBirds, err := analytic.CheckBirdsNash(grid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAppendix verdicts over %d parameter configurations:\n", vBT.Checked)
	fmt.Printf("  a Birds deviant profits in a BT swarm in %d configs → BT is not a Nash equilibrium\n", vBT.Profitable)
	fmt.Printf("  a BT deviant profits in a Birds swarm in %d configs → Birds is a Nash equilibrium: %v\n",
		vBirds.Profitable, vBirds.IsEquilibrium())

	// Output:
	// BitTorrent Dilemma
	// (C,C)=(-80,100) (C,D)=(0,20)
	// (D,C)=(20,0) (D,D)=(0,0)
	// fast defects (dominant: true), slow cooperates (dominant: true)
	//
	// Birds Dilemma
	// (C,C)=(-80,80) (C,D)=(0,100)
	// (D,C)=(20,0) (D,D)=(0,0)
	// slow now defects too (dominant: true, strict: false)
	//
	// iterated BT Dilemma over 100 rounds: fast AllD scores 2000, slow AllC scores 0
	//
	// expected wins per period (NA=20 NB=15 NC=15 Ur=4):
	//   BitTorrent: 3.950   Birds: 5.000
	//
	// Appendix verdicts over 475 parameter configurations:
	//   a Birds deviant profits in a BT swarm in 468 configs → BT is not a Nash equilibrium
	//   a BT deviant profits in a Birds swarm in 0 configs → Birds is a Nash equilibrium: true
}

// The PRA quantification (Section 4.3) of the paper's named protocols
// at the quick preset, and the Robustness/Aggressiveness correlation of
// Figure 8.
func ExampleRunPRA() {
	named := repro.Named()
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	protocols := make([]repro.Protocol, len(names))
	for i, name := range names {
		protocols[i] = named[name]
	}

	// Quick preset: small populations and a sampled opponent panel.
	// repro.PaperConfig is the full Section 4.3 scale.
	cfg := repro.QuickConfig()
	cfg.Opponents = 40
	res, err := repro.RunPRA(protocols, cfg)
	if err != nil {
		log.Fatal(err)
	}

	s := res.Scores
	fmt.Printf("%-16s %-16s %9s %11s %10s %14s\n",
		"name", "protocol", "raw KiB/s", "Performance", "Robustness", "Aggressiveness")
	for i, name := range names {
		fmt.Printf("%-16s %-16s %9.1f %11.3f %10.3f %14.3f\n",
			name, protocols[i], s.Raw["performance"][i], s.Measure("performance")[i],
			s.Measure("robustness")[i], s.Measure("aggressiveness")[i])
	}
	if _, _, r, err := res.Fig8(); err == nil {
		fmt.Printf("\nPearson(Robustness, Aggressiveness) = %.3f (paper: 0.96)\n", r)
	}

	// Output:
	// name             protocol         raw KiB/s Performance Robustness Aggressiveness
	// Birds            B1h1-C1-I3k4-R1      225.4       0.893      0.725          0.525
	// BitTorrent       B1h1-C1-I1k4-R1      250.6       0.993      0.900          0.825
	// Freerider        B0h0-C1-I1k0-R3        0.0       0.000      0.275          0.200
	// LoyalWhenNeeded  B2h2-C1-I5k4-R1      252.4       1.000      0.850          0.675
	// MostRobust       B2h3-C1-I1k7-R2      252.1       0.999      0.925          0.875
	// SortRandom       B1h1-C1-I6k4-R1      250.7       0.993      0.800          0.750
	// SortS            B3h1-C1-I2k1-R1      244.7       0.970      0.600          0.675
	//
	// Pearson(Robustness, Aggressiveness) = 0.921 (paper: 0.96)
}

// A protocol designer's use of the library: a variant built by hand from
// the design-space dimensions, checked to lie in the actualized space,
// and scored against the paper's named protocols.
func ExampleRunPRA_customProtocol() {
	// Loyal ranking like Loyal-When-needed, with Prop Share
	// reciprocation and a bigger partner set: the Section 4.4
	// robustness ingredients combined.
	custom := design.Protocol{
		Stranger:   design.WhenNeeded,
		H:          2,
		Candidate:  design.TFT,
		Ranking:    design.Loyal,
		K:          7,
		Allocation: design.PropShare,
	}
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}
	id, err := pra.Domain().PointID(pra.ToPoint(custom))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom protocol %s (space ID %d):\n  %s\n\n", custom, id, custom.Describe())

	lineup := []repro.Protocol{custom, design.BitTorrent(), design.LoyalWhenNeeded(), design.MostRobustCandidate(), design.Freerider()}
	labels := []string{"custom", "BitTorrent", "LoyalWhenNeeded", "MostRobust", "Freerider"}
	cfg := pra.Quick()
	cfg.Opponents = 50
	res, err := repro.RunPRA(lineup, cfg)
	if err != nil {
		log.Fatal(err)
	}
	perf := res.Scores.Measure(pra.MeasurePerformance)
	rob := res.Scores.Measure(pra.MeasureRobustness)
	agg := res.Scores.Measure(pra.MeasureAggressiveness)
	fmt.Printf("%-16s %11s %10s %14s\n", "protocol", "Performance", "Robustness", "Aggressiveness")
	for i, l := range labels {
		fmt.Printf("%-16s %11.3f %10.3f %14.3f\n", l, perf[i], rob[i], agg[i])
	}

	// Head to head against the robust candidate, half the population each.
	mine, theirs, err := pra.Encounter(custom, design.MostRobustCandidate(), 0.5, cfg, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n50/50 encounter vs MostRobust: custom %.1f KiB/s vs %.1f KiB/s\n", mine, theirs)

	// Output:
	// custom protocol B2h2-C1-I5k7-R2 (space ID 1765):
	//   stranger=WhenNeeded(h=2) candidates=TFT ranking=Loyal(k=7) allocation=PropShare
	//
	// protocol         Performance Robustness Aggressiveness
	// custom                 0.996      1.000          0.860
	// BitTorrent             0.993      1.000          0.960
	// LoyalWhenNeeded        1.000      0.900          0.700
	// MostRobust             0.999      1.000          0.920
	// Freerider              0.000      0.220          0.120
	//
	// 50/50 encounter vs MostRobust: custom 343.4 KiB/s vs 160.7 KiB/s
}

// The Section 5 validation in miniature (Figure 9b): Birds against
// reference BitTorrent clients in the piece-level swarm, average
// download times with 95% confidence intervals. Lower is better.
func ExampleSwarmEncounter() {
	cfg := repro.DefaultSwarm() // 5 MiB file, 128 KiB/s seeder, 10 s chokes
	const leechers, runs = 50, 10
	pts, err := repro.SwarmEncounter(repro.Birds, repro.BT, []float64{0, 0.25, 0.5, 0.75, 1}, leechers, runs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%10s %14s %14s\n", "frac Birds", "Birds (s)", "BitTorrent (s)")
	for _, p := range pts {
		birds, bt := "-", "-"
		if p.CountA > 0 {
			birds = fmt.Sprintf("%.1f ± %.1f", p.TimeA.Mean, p.TimeA.Half)
		}
		if p.CountA < leechers {
			bt = fmt.Sprintf("%.1f ± %.1f", p.TimeB.Mean, p.TimeB.Half)
		}
		fmt.Printf("%10.2f %14s %14s\n", p.FracA, birds, bt)
	}

	// Output:
	// frac Birds      Birds (s) BitTorrent (s)
	//       0.00              -   167.3 ± 13.4
	//       0.25   166.1 ± 18.2   166.6 ± 16.9
	//       0.50   171.7 ± 12.4   173.6 ± 12.6
	//       0.75   176.9 ± 15.9   175.3 ± 14.7
	//       1.00    170.5 ± 9.2              -
}

// Design Space Analysis on the delivery domain through the generic API:
// a sweep interrupted, resumed and finished as a second shard with a
// trace journal, its checkpoint reloaded to the identical result, and
// the space hill-climbed twice over one score cache.
func ExampleRunSweepContext() {
	domain, err := repro.DomainByName("delivery")
	if err != nil {
		log.Fatal(err)
	}
	space := domain.Space()
	fmt.Printf("delivery design space: %d strategies over %d dimensions\n", space.Size(), len(space.Dimensions))
	fmt.Printf("measures: %v\n\n", domain.Measures())

	cfg, err := domain.DefaultConfig("quick")
	if err != nil {
		log.Fatal(err)
	}
	cfg.Peers, cfg.Rounds, cfg.PerfRuns = 8, 240, 2 // a small swarm, short downloads

	dir, err := os.MkdirTemp("", "delivery-sweep-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Shard 0 of 2, cancelled after its third task as Ctrl-C cancels
	// dsa-sweep: the in-flight execution unit (one chunk's four
	// measures) finishes, and its tasks are journalled in dir.
	ctx, cancel := context.WithCancel(context.Background())
	opts := repro.SweepOptions{Dir: dir, Shards: 2, ShardIndex: 0, Chunk: 16, Workers: 1}
	interrupted := 0
	optsInterrupt := opts
	optsInterrupt.Progress = func(p repro.SweepProgress) {
		interrupted = p.FreshTasks
		if p.FreshTasks >= 3 {
			cancel()
		}
	}
	if _, err := repro.RunSweepContext(ctx, domain, nil, cfg, optsInterrupt); !errors.Is(err, context.Canceled) {
		log.Fatalf("expected interruption, got %v", err)
	}
	fmt.Printf("shard 0 interrupted after %d tasks\n", interrupted)

	// Resumed, shard 0 skips what is journalled and runs the rest of its
	// share; shard 1's tasks are still outstanding.
	_, err = repro.RunSweepContext(context.Background(), domain, nil, cfg, opts)
	if !errors.Is(err, repro.ErrSweepIncomplete) {
		log.Fatalf("expected incomplete shard, got %v", err)
	}
	fmt.Printf("shard 0 resumed: %v\n", err)

	// Shard 1, traced, finds shard 0's tasks checkpointed, runs its own
	// and assembles the whole sweep.
	traceDir := filepath.Join(dir, "trace")
	rec, err := repro.OpenTraceJournal(traceDir, "s1of2")
	if err != nil {
		log.Fatal(err)
	}
	opts.ShardIndex, opts.Trace = 1, rec
	scores, err := repro.RunSweepContext(context.Background(), domain, nil, cfg, opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 1 assembled %d points × %d measures\n", len(scores.Points), len(scores.Values))
	a, err := repro.AnalyzeTrace(traceDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("its trace: %d tasks, %d points simulated, %d served from a cache\n", a.Tasks, a.PointsSimulated, a.PointsCached)

	// The checkpoint alone reproduces it (dsa-report -checkpoint DIR merge).
	reloaded, err := repro.LoadSweep(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint reload identical:", reflect.DeepEqual(scores, reloaded))

	robustness := scores.Measure(delivery.MeasureRobustness)
	meanTime := scores.Measure(delivery.MeasureMeanTime)
	order := make([]int, len(scores.Points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return robustness[order[a]] > robustness[order[b]] })
	fmt.Println("\ntop 5 by robustness (mean_time normalised, 1 = fastest):")
	for _, i := range order[:5] {
		fmt.Printf("  robustness=%.3f mean_time=%.3f  %s\n", robustness[i], meanTime[i], domain.Label(scores.Points[i]))
	}
	worst := order[len(order)-1]
	fmt.Printf("worst: robustness=%.3f mean_time=%.3f  %s\n\n", robustness[worst], meanTime[worst], domain.Label(scores.Points[worst]))

	// The Section 7 explorer on the raw robustness measure, twice over one
	// memory-only score cache: the second climb simulates nothing.
	store, err := repro.OpenScoreCache("")
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	for climb := 1; climb <= 2; climb++ {
		best, calls, err := job.HillClimb(context.Background(), domain, job.Weights{delivery.MeasureRobustness: 1},
			cfg, job.HillClimbConfig{Restarts: 3, MaxSteps: 30, Seed: 7}, store, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("climb %d: %s (objective %.3f) after %d of %d evaluations\n",
			climb, domain.Label(best.Point), best.Score, calls, space.Size())
	}
	st := store.Stats()
	fmt.Printf("score cache: %d entries, %d hits, %d misses\n", st.Entries, st.Hits, st.Misses)

	// Output:
	// delivery design space: 576 strategies over 5 dimensions
	// measures: [robustness mean_time p95_time mirror_offload]
	//
	// shard 0 interrupted after 4 tasks
	// shard 0 resumed: job: sweep incomplete: 72 of 144 tasks done (merge after the remaining shards finish)
	// shard 1 assembled 576 points × 4 measures
	// its trace: 72 tasks, 1152 points simulated, 0 served from a cache
	// checkpoint reload identical: true
	//
	// top 5 by robustness (mean_time normalised, 1 = fastest):
	//   robustness=1.000 mean_time=0.864  Latency/f1/P2POnly/Fixed/Sybil
	//   robustness=1.000 mean_time=0.338  Latency/f1/P2POnly/Adaptive/Colluders
	//   robustness=1.000 mean_time=0.289  Latency/f1/P2POnly/Adaptive/Sybil
	//   robustness=1.000 mean_time=0.586  Latency/f1/P2POnly/Eager/Honest
	//   robustness=1.000 mean_time=0.877  Latency/f1/MirrorOnly/Fixed/Honest
	// worst: robustness=0.000 mean_time=0.759  Balanced/f2/P2POnly/Adaptive/Colluders
	//
	// climb 1: Throughput/f1/MirrorOnly/Fixed/Colluders (objective 1.000) after 50 of 576 evaluations
	// climb 2: Throughput/f1/MirrorOnly/Fixed/Colluders (objective 1.000) after 50 of 576 evaluations
	// score cache: 50 entries, 50 hits, 50 misses
}
