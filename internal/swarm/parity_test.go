package swarm_test

// Golden-parity suite: proves the optimized swarm.Run is
// byte-identical to the frozen seed implementation (refswarm, in
// reference_test.go) across a committed matrix of client mixes and
// configurations, and that pooling never leaks state between runs.
// Fixtures hold exact float64 bit patterns; regenerate (from refswarm,
// never from the optimized code) with
//
//	go test ./internal/swarm -run TestSwarmGoldenParity -update

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/swarm"
)

var update = flag.Bool("update", false, "regenerate golden fixtures from the frozen reference implementation")

const goldenPath = "testdata/golden_swarm.json"

type goldenCase struct {
	Name      string `json:"name"`
	Clients   []int  `json:"clients"`
	FileKiB   int    `json:"fileKiB"`
	PieceKiB  int    `json:"pieceKiB"`
	Seeders   int    `json:"seeders"`
	Seed      int64  `json:"seed"`
	NoDownCap bool   `json:"noDownCap,omitempty"`

	TimesBits []uint64 `json:"timesBits,omitempty"`
	Goodput   uint64   `json:"goodputBits,omitempty"`
	Wasted    uint64   `json:"wastedBits,omitempty"`
	Edges     uint64   `json:"edgesBits,omitempty"`
	Censored  int      `json:"censored"`
}

func goldenCases() []goldenCase {
	uniform := func(c swarm.Client, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = int(c)
		}
		return ids
	}
	all := []swarm.Client{
		swarm.ClientBT, swarm.ClientBirds, swarm.ClientLoyal,
		swarm.ClientSortS, swarm.ClientRandom,
	}
	var cases []goldenCase
	for _, c := range all {
		cases = append(cases, goldenCase{
			Name: "homogeneous/" + c.String(), Clients: uniform(c, 16),
			FileKiB: 1024, PieceKiB: 128, Seeders: 1, Seed: 11,
		})
	}
	mixed := make([]int, 20)
	for i := range mixed {
		mixed[i] = i % len(all)
	}
	cases = append(cases,
		goldenCase{Name: "mixed/all-five", Clients: mixed, FileKiB: 1024, PieceKiB: 128, Seeders: 1, Seed: 12},
		goldenCase{Name: "mixed/two-seeders", Clients: mixed, FileKiB: 2048, PieceKiB: 256, Seeders: 2, Seed: 13},
		goldenCase{Name: "mixed/no-downcap", Clients: mixed, FileKiB: 1024, PieceKiB: 128, Seeders: 1, Seed: 14, NoDownCap: true},
	)
	return cases
}

func (c goldenCase) config() (swarm.Config, []swarm.Client) {
	cfg := swarm.Default()
	cfg.FileKiB = c.FileKiB
	cfg.PieceKiB = c.PieceKiB
	cfg.Seeders = c.Seeders
	cfg.Seed = c.Seed
	if c.NoDownCap {
		cfg.DownCapFactor = 0
	}
	clients := make([]swarm.Client, len(c.Clients))
	for i, id := range c.Clients {
		clients[i] = swarm.Client(id)
	}
	return cfg, clients
}

func toBits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

func checkResult(t *testing.T, caseName, impl string, got swarm.Result, g goldenCase) {
	t.Helper()
	if len(got.Times) != len(g.TimesBits) {
		t.Fatalf("%s/%s: %d times, golden has %d", caseName, impl, len(got.Times), len(g.TimesBits))
	}
	for i := range got.Times {
		if math.Float64bits(got.Times[i]) != g.TimesBits[i] {
			t.Errorf("%s/%s: Times[%d] = %v (bits %#x), golden bits %#x — byte-identity broken",
				caseName, impl, i, got.Times[i], math.Float64bits(got.Times[i]), g.TimesBits[i])
			return
		}
	}
	if math.Float64bits(got.Goodput) != g.Goodput || math.Float64bits(got.Wasted) != g.Wasted ||
		math.Float64bits(got.MeanActiveEdges) != g.Edges || got.Censored != g.Censored {
		t.Errorf("%s/%s: aggregates diverged from golden (goodput %v wasted %v edges %v censored %d)",
			caseName, impl, got.Goodput, got.Wasted, got.MeanActiveEdges, got.Censored)
	}
}

// TestSwarmGoldenParity checks refswarm (freeze guard) and the
// optimized Run, whose pool has already absorbed the other cases' runs
// by the time most cases reach it, against the committed bit patterns.
func TestSwarmGoldenParity(t *testing.T) {
	cases := goldenCases()
	if *update {
		for i := range cases {
			cfg, clients := cases[i].config()
			res, err := Run(clients, cfg)
			if err != nil {
				t.Fatalf("case %s: %v", cases[i].Name, err)
			}
			cases[i].TimesBits = toBits(res.Times)
			cases[i].Goodput = math.Float64bits(res.Goodput)
			cases[i].Wasted = math.Float64bits(res.Wasted)
			cases[i].Edges = math.Float64bits(res.MeanActiveEdges)
			cases[i].Censored = res.Censored
		}
		buf, err := json.MarshalIndent(cases, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", goldenPath, len(cases))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixtures (run with -update to generate from refswarm): %v", err)
	}
	var golden []goldenCase
	if err := json.Unmarshal(buf, &golden); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenCase, len(golden))
	for _, g := range golden {
		byName[g.Name] = g
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			g, ok := byName[c.Name]
			if !ok {
				t.Fatalf("case %s missing from golden file; regenerate with -update", c.Name)
			}
			cfg, clients := c.config()

			ref, err := Run(clients, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, c.Name, "refswarm", ref, g)

			got, err := swarm.Run(clients, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, c.Name, "optimized", got, g)
		})
	}
}

// TestRandomizedRefswarmParity fuzzes client mixes, swarm shapes and
// capacity distributions against the reference, every run on the shared
// pool. Everything must match bit for bit.
func TestRandomizedRefswarmParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	flat, err := bandwidth.New([]bandwidth.Point{{Q: 0, KBps: 80}, {Q: 1, KBps: 80}})
	if err != nil {
		t.Fatal(err)
	}
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(20)
		clients := make([]swarm.Client, n)
		for i := range clients {
			clients[i] = swarm.Client(rng.Intn(5))
		}
		cfg := swarm.Default()
		cfg.FileKiB = []int{512, 1024, 2048}[rng.Intn(3)]
		cfg.PieceKiB = []int{64, 128, 200}[rng.Intn(3)]
		cfg.Seeders = 1 + rng.Intn(2)
		cfg.SeederSlots = 2 + rng.Intn(3)
		cfg.Seed = rng.Int63()
		cfg.MaxSeconds = 400 + rng.Intn(400)
		if rng.Intn(3) == 0 {
			cfg.DownCapFactor = 0
		}
		if rng.Intn(3) == 0 {
			cfg.Dist = flat
		}
		ref, err := Run(clients, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := swarm.Run(clients, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Goodput != ref.Goodput || got.Wasted != ref.Wasted ||
			got.MeanActiveEdges != ref.MeanActiveEdges || got.Censored != ref.Censored {
			t.Fatalf("trial %d: aggregates differ:\nnew %+v\nref %+v\nclients %v", trial, got, ref, clients)
		}
		for i := range ref.Times {
			if got.Times[i] != ref.Times[i] {
				t.Fatalf("trial %d leecher %d: %v vs %v (clients %v)", trial, i, got.Times[i], ref.Times[i], clients)
			}
		}
	}
}
