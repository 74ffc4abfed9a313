package swarm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bandwidth"
)

// fastCfg shrinks the experiment for unit tests: smaller file, fewer
// pieces, generous seeder.
// uniform is the degenerate distribution with every peer at kbps.
func uniform(t testing.TB, kbps float64) *bandwidth.Distribution {
	t.Helper()
	d, err := bandwidth.New([]bandwidth.Point{{Q: 0, KBps: kbps}, {Q: 1, KBps: kbps}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fastCfg() Config {
	cfg := Default()
	cfg.FileKiB = 1024
	cfg.PieceKiB = 128
	cfg.MaxSeconds = 1800
	return cfg
}

func allBT(n int) []Client {
	cs := make([]Client, n)
	for i := range cs {
		cs[i] = ClientBT
	}
	return cs
}

func TestConfigValidate(t *testing.T) {
	good := Default()
	if err := good.validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.FileKiB = 0 },
		func(c *Config) { c.PieceKiB = 0 },
		func(c *Config) { c.PieceKiB = c.FileKiB * 2 },
		func(c *Config) { c.SeedUploadKBps = 0 },
		func(c *Config) { c.Seeders = 0 },
		func(c *Config) { c.SeederSlots = 0 },
		func(c *Config) { c.ChokeIntervalS = 0 },
		func(c *Config) { c.OptimisticEvery = 0 },
		func(c *Config) { c.MaxSeconds = 0 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestRunInputValidation(t *testing.T) {
	if _, err := Run(nil, Default()); err == nil {
		t.Error("no leechers should error")
	}
	if _, err := Run([]Client{Client(99)}, Default()); err == nil {
		t.Error("unknown client should error")
	}
}

func TestPiecesRounding(t *testing.T) {
	c := Default()
	c.FileKiB, c.PieceKiB = 1000, 256
	if got := c.pieces(); got != 4 {
		t.Errorf("pieces = %d, want 4 (ceil)", got)
	}
}

func TestClientNames(t *testing.T) {
	want := map[Client]string{
		ClientBT:     "BitTorrent",
		ClientBirds:  "Birds",
		ClientLoyal:  "Loyal-When-needed",
		ClientSortS:  "Sort-S",
		ClientRandom: "Random",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if ClientSortS.slots() != 1 || ClientBT.slots() != 3 {
		t.Error("slot counts wrong")
	}
	if ClientSortS.optimistic() != optimisticNever ||
		ClientLoyal.optimistic() != optimisticWhenNeeded ||
		ClientBT.optimistic() != optimisticAlways {
		t.Error("optimistic modes wrong")
	}
}

func TestAllLeechersComplete(t *testing.T) {
	res, err := Run(allBT(20), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 0 {
		t.Fatalf("censored = %d, want 0", res.Censored)
	}
	for i, tt := range res.Times {
		if math.IsInf(tt, 1) || tt <= 0 {
			t.Errorf("leecher %d time = %v", i, tt)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(allBT(15), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(allBT(15), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Times {
		if a.Times[i] != b.Times[i] {
			t.Fatal("same seed must reproduce the run")
		}
	}
	cfg2 := fastCfg()
	cfg2.Seed = 999
	c, err := Run(allBT(15), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Times {
		if a.Times[i] != c.Times[i] {
			same = false
		}
	}
	if same {
		t.Error("different seed should change some download times")
	}
}

func TestDownloadTimesPhysicallyPlausible(t *testing.T) {
	// The swarm can never finish faster than the seeder needs to push
	// one full copy of the file into the swarm.
	cfg := fastCfg()
	res, err := Run(allBT(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	lower := float64(cfg.FileKiB) / cfg.SeedUploadKBps
	last := 0.0
	for _, tt := range res.Times {
		if tt > last {
			last = tt
		}
	}
	if last < lower {
		t.Errorf("swarm finished in %v s, below seeder bound %v s", last, lower)
	}
}

func TestPaperScaleMagnitudes(t *testing.T) {
	// Section 5 setup: 5 MiB file, 128 KiB/s seeder, 50 leechers.
	// Figures 9-10 report average download times of roughly 40-200 s;
	// the simulator should land in that ballpark.
	if testing.Short() {
		t.Skip("paper-scale swarm in -short mode")
	}
	cfg := Default()
	res, err := Run(allBT(50), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := res.CampMean(func(int) bool { return true })
	if mean < 30 || mean > 400 {
		t.Errorf("mean download time = %v s, want within [30,400]", mean)
	}
	if res.Censored != 0 {
		t.Errorf("censored = %d", res.Censored)
	}
}

func TestFreeriderLikeSwarmStillFinishes(t *testing.T) {
	// Even an all-Sort-S swarm (single slot, no optimistic unchokes)
	// must complete: the seeder alone guarantees progress.
	res, err := Run([]Client{ClientSortS, ClientSortS, ClientSortS, ClientSortS}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 0 {
		t.Errorf("censored = %d", res.Censored)
	}
}

func TestMixedSwarm(t *testing.T) {
	clients := []Client{
		ClientBT, ClientBirds, ClientLoyal, ClientSortS, ClientRandom,
		ClientBT, ClientBirds, ClientLoyal, ClientSortS, ClientRandom,
	}
	res, err := Run(clients, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 0 {
		t.Errorf("mixed swarm censored = %d", res.Censored)
	}
}

func TestCampMeanAndTimes(t *testing.T) {
	r := Result{Times: []float64{10, 20, math.Inf(1), 40}}
	even := func(i int) bool { return i%2 == 0 }
	if got := r.CampMean(even); got != 10 {
		t.Errorf("CampMean = %v, want 10 (censored excluded)", got)
	}
	if got := r.CampMean(func(i int) bool { return i == 2 }); !math.IsInf(got, 1) {
		t.Errorf("all-censored camp mean = %v, want +Inf", got)
	}
}

func TestEncounterSeriesShape(t *testing.T) {
	cfg := fastCfg()
	pts, err := EncounterSeries(ClientBirds, ClientBT, []float64{0, 0.5, 1}, 12, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].CountA != 0 || pts[2].CountA != 12 {
		t.Errorf("camp counts = %d/%d", pts[0].CountA, pts[2].CountA)
	}
	if pts[1].CountA != 6 {
		t.Errorf("50%% camp count = %d", pts[1].CountA)
	}
	// Middle point must report both camps with finite times.
	if pts[1].TimeA.Mean <= 0 || pts[1].TimeB.Mean <= 0 {
		t.Error("mixed point should have finite camp times")
	}
	if pts[1].TimeA.N != 2 {
		t.Errorf("runs aggregated = %d, want 2", pts[1].TimeA.N)
	}
}

func TestEncounterSeriesValidation(t *testing.T) {
	cfg := fastCfg()
	if _, err := EncounterSeries(ClientBT, ClientBirds, []float64{0.5}, 0, 1, cfg); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := EncounterSeries(ClientBT, ClientBirds, []float64{1.5}, 10, 1, cfg); err == nil {
		t.Error("fraction > 1 should error")
	}
}

func TestHomogeneous(t *testing.T) {
	ci, err := Homogeneous(ClientBT, 10, 3, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if ci.N != 3 || ci.Mean <= 0 {
		t.Errorf("homogeneous CI = %+v", ci)
	}
}

func TestRarestFirstSpreadsPieces(t *testing.T) {
	// With rarest-first, availability across pieces should stay fairly
	// even: after a run no piece should have been systematically
	// neglected (all leechers finished means every piece replicated).
	cfg := fastCfg()
	res, err := Run(allBT(16), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 0 {
		t.Error("run did not complete")
	}
}

func TestFasterPeersFinishSoonerUnderBT(t *testing.T) {
	// Under the reference client, upload capacity correlates with
	// download time: the reciprocation mechanism rewards fast peers.
	cfg := Default()
	cfg.FileKiB = 2048
	res, err := Run(allBT(30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Capacities are stratified ascending; compare slowest vs fastest
	// thirds.
	var slow, fast float64
	for i := 0; i < 10; i++ {
		slow += res.Times[i] / 10
		fast += res.Times[29-i] / 10
	}
	if fast >= slow {
		t.Errorf("fast third %v s should finish before slow third %v s", fast, slow)
	}
}

func TestSeederBoundProperty(t *testing.T) {
	// Property: over random small swarms, nobody finishes before the
	// seeder could possibly have delivered a full copy anywhere.
	cfg := fastCfg()
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 3
		runCfg := cfg
		runCfg.Seed = seed
		res, err := Run(allBT(n), runCfg)
		if err != nil {
			return false
		}
		first := math.Inf(1)
		for _, tt := range res.Times {
			if tt < first {
				first = tt
			}
		}
		// First finisher needs at least FileKiB at the aggregate rate
		// available to it; the loosest bound is file/(seed+total peers'
		// upload), but a simple sanity floor is 1 second.
		return first >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestUniformDistSwarm(t *testing.T) {
	cfg := fastCfg()
	cfg.Dist = uniform(t, 100)
	res, err := Run(allBT(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Censored != 0 {
		t.Error("uniform swarm should finish")
	}
}
