package cyclesim_test

// Golden-parity suite: proves the optimized cyclesim.Run is
// byte-identical to the frozen seed implementation (refsim, in
// reference_test.go) across a committed matrix of protocols × churn
// rates × population mixes, and that pooling never leaks state between
// runs.
//
// The golden fixtures in testdata/golden_cyclesim.json hold the exact
// float64 bit patterns refsim produced at freeze time; regenerate with
//
//	go test ./internal/cyclesim -run TestGoldenParity -update
//
// (which re-runs refsim, NOT the optimized code — the optimized
// implementation can never define its own truth). Any perf change that
// alters a single bit here also invalidates the PR 4 cache keys and
// the committed CSVs, and needs a dsa.ScoreVersioned version bump plus
// a deliberate fixture regeneration.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/cyclesim"
	"repro/internal/design"
	"repro/internal/pra"
)

var update = flag.Bool("update", false, "regenerate golden fixtures from the frozen reference implementation")

const goldenPath = "testdata/golden_cyclesim.json"

// goldenCase pins one simulation: the spec is reconstructed from
// protocol IDs so fixtures survive any refactoring of the design
// space's Go types (IDs are the swarming domain's point IDs, the stable
// enumeration order).
type goldenCase struct {
	Name        string   `json:"name"`
	ProtoIDs    []int    `json:"protoIds"` // one per peer
	Rounds      int      `json:"rounds"`
	Seed        int64    `json:"seed"`
	Churn       float64  `json:"churn"`
	Replacement bool     `json:"replacement"` // churned-in capacities from Piatek
	UtilityBits []uint64 `json:"utilityBits,omitempty"`
	SpentBits   []uint64 `json:"spentBits,omitempty"`
}

// swarming is the domain whose point IDs name the fixtures' protocols.
var swarming = pra.Domain()

// protocolID is p's point ID in the swarming space.
func protocolID(p design.Protocol) int {
	id, err := swarming.PointID(pra.ToPoint(p))
	if err != nil {
		panic(err) // every protocol the cases build is in the space
	}
	return id
}

// protocolByID decodes a swarming point ID.
func protocolByID(id int) (design.Protocol, error) {
	pt, err := swarming.PointByID(id)
	if err != nil {
		return design.Protocol{}, err
	}
	return pra.FromPoint(pt)
}

// goldenCases builds the committed matrix: every ranking function and
// allocation policy appears, churn covers the paper's three rates, and
// the mixed populations exercise the encounter path.
func goldenCases() []goldenCase {
	adaptive := design.BitTorrent()
	adaptive.Ranking = design.Adaptive
	randomRank := design.BitTorrent()
	randomRank.Ranking = design.RandomRank
	sortSProp := design.SortS()
	sortSProp.Allocation = design.PropShare

	homogeneous := map[string]design.Protocol{
		"bittorrent":    design.BitTorrent(),
		"birds":         design.Birds(),
		"sort-s":        design.SortS(),
		"loyal-wn":      design.LoyalWhenNeeded(),
		"most-robust":   design.MostRobustCandidate(),
		"freerider":     design.Freerider(),
		"adaptive":      adaptive,
		"random-rank":   randomRank,
		"sort-s-propsh": sortSProp,
	}
	var cases []goldenCase
	uniform := func(p design.Protocol, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = protocolID(p)
		}
		return ids
	}
	// Sorted name order keeps -update regenerations byte-stable, so a
	// deliberate fixture refresh diffs only the values that moved.
	sortedNames := func(m map[string]design.Protocol) []string {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	for _, name := range sortedNames(homogeneous) {
		cases = append(cases, goldenCase{
			Name: "homogeneous/" + name, ProtoIDs: uniform(homogeneous[name], 30), Rounds: 150, Seed: 101,
		})
	}
	churned := map[string]design.Protocol{
		"bittorrent": design.BitTorrent(), "sort-s": design.SortS(),
	}
	for _, churn := range []float64{0.01, 0.1} {
		for _, name := range sortedNames(churned) {
			cases = append(cases, goldenCase{
				Name:     fmt.Sprintf("churn/%s/%v", name, churn),
				ProtoIDs: uniform(churned[name], 30), Rounds: 150, Seed: 202,
				Churn: churn, Replacement: true,
			})
		}
	}
	mix := func(a, b design.Protocol, n, nA int) []int {
		ids := make([]int, n)
		for i := range ids {
			if i < nA {
				ids[i] = protocolID(a)
			} else {
				ids[i] = protocolID(b)
			}
		}
		return ids
	}
	cases = append(cases,
		goldenCase{Name: "mixed/bt-vs-freerider", ProtoIDs: mix(design.BitTorrent(), design.Freerider(), 30, 15), Rounds: 150, Seed: 303},
		goldenCase{Name: "mixed/sorts-vs-bt", ProtoIDs: mix(design.SortS(), design.BitTorrent(), 30, 15), Rounds: 150, Seed: 304},
		goldenCase{Name: "mixed/minority-robust", ProtoIDs: mix(design.MostRobustCandidate(), design.BitTorrent(), 30, 3), Rounds: 150, Seed: 305, Churn: 0.01, Replacement: true},
	)

	// One case on each boundary of the selection fast paths (ranking is
	// skipped when every candidate fits in k and nothing reads the
	// order; selection is skipped for a Freeride peer nothing
	// observes): with k = 9 in a 10-peer population every candidate
	// always fits, and Prop Share must still rank where Equal Split
	// need not; a Freeride peer must still select under When-needed
	// (vacancy count) and RandomRank (RNG draws) and may not under
	// Periodic; the 70-peer case runs every bitmask two words wide.
	propShareK9 := design.Protocol{Stranger: design.Periodic, H: 2, Candidate: design.TF2T, Ranking: design.Fastest, K: 9, Allocation: design.PropShare}
	equalSplitK9 := propShareK9
	equalSplitK9.Allocation = design.EqualSplit
	freeridePeriodic := design.Protocol{Stranger: design.Periodic, H: 1, Candidate: design.TFT, Ranking: design.Fastest, K: 4, Allocation: design.Freeride}
	freerideWhenNeeded := freeridePeriodic
	freerideWhenNeeded.Stranger, freerideWhenNeeded.H = design.WhenNeeded, 2
	freerideRandom := freeridePeriodic
	freerideRandom.Ranking = design.RandomRank
	cases = append(cases,
		goldenCase{Name: "fastpath/propshare-k9", ProtoIDs: uniform(propShareK9, 10), Rounds: 150, Seed: 401},
		goldenCase{Name: "fastpath/equalsplit-k9", ProtoIDs: uniform(equalSplitK9, 10), Rounds: 150, Seed: 402},
		goldenCase{Name: "fastpath/freeride-whenneeded", ProtoIDs: uniform(freerideWhenNeeded, 30), Rounds: 150, Seed: 403},
		goldenCase{Name: "fastpath/freeride-randomrank", ProtoIDs: uniform(freerideRandom, 30), Rounds: 150, Seed: 404},
		goldenCase{Name: "fastpath/freeride-periodic-vs-bt", ProtoIDs: mix(freeridePeriodic, design.BitTorrent(), 30, 15), Rounds: 150, Seed: 405},
		goldenCase{Name: "fastpath/wide-mixed-churn", ProtoIDs: mix(design.MostRobustCandidate(), freeridePeriodic, 70, 35), Rounds: 150, Seed: 406, Churn: 0.1, Replacement: true},
	)
	return cases
}

func (c goldenCase) specs(t *testing.T) []cyclesim.PeerSpec {
	t.Helper()
	caps := bandwidth.Piatek().Stratified(len(c.ProtoIDs))
	specs := make([]cyclesim.PeerSpec, len(c.ProtoIDs))
	for i, id := range c.ProtoIDs {
		p, err := protocolByID(id)
		if err != nil {
			t.Fatalf("case %s: %v", c.Name, err)
		}
		specs[i] = cyclesim.PeerSpec{Protocol: p, Capacity: caps[i]}
	}
	return specs
}

func (c goldenCase) options() cyclesim.Options {
	opt := cyclesim.Options{Rounds: c.Rounds, Seed: c.Seed, Churn: c.Churn}
	if c.Replacement {
		opt.Replacement = bandwidth.Piatek()
	}
	return opt
}

func toBits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

func checkBits(t *testing.T, caseName, what string, got []float64, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s has %d values, golden has %d", caseName, what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != want[i] {
			t.Errorf("%s: %s[%d] = %v (bits %#x), golden bits %#x — byte-identity broken",
				caseName, what, i, got[i], math.Float64bits(got[i]), want[i])
			return
		}
	}
}

// TestGoldenParity checks two implementations against the committed
// bit patterns: the frozen reference (guards against accidental edits
// to refsim) and the optimized Run, whose pool has already absorbed the
// other cases' runs by the time most cases reach it (guards against
// state leaking through reuse).
func TestGoldenParity(t *testing.T) {
	cases := goldenCases()
	if *update {
		for i := range cases {
			res, err := Run(cases[i].specs(t), cases[i].options())
			if err != nil {
				t.Fatalf("case %s: %v", cases[i].Name, err)
			}
			cases[i].UtilityBits = toBits(res.Utility)
			cases[i].SpentBits = toBits(res.Spent)
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
		t.Fatalf("missing golden fixtures (run with -update to generate from refsim): %v", err)
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
			specs := c.specs(t)

			ref, err := Run(specs, c.options())
			if err != nil {
				t.Fatal(err)
			}
			checkBits(t, c.Name, "refsim utility", ref.Utility, g.UtilityBits)
			checkBits(t, c.Name, "refsim spent", ref.Spent, g.SpentBits)

			got, err := cyclesim.Run(specs, c.options())
			if err != nil {
				t.Fatal(err)
			}
			checkBits(t, c.Name, "utility", got.Utility, g.UtilityBits)
			checkBits(t, c.Name, "spent", got.Spent, g.SpentBits)
		})
	}
}

// TestRandomizedRefsimParity fuzzes the whole design space against the
// reference: random protocol pairs, population sizes, churn rates
// (including the 1.0 edge) and round counts, every run on the shared
// pool. Everything
// must match bit for bit. One trial in five is wider than 64 peers, so
// every bitmask row spans several words (candidate scan, commit's mask
// write, churn's row/column wipe, the serving mask); one in four gives
// a third of the peers zero capacity (a Periodic contact at slot
// bandwidth 0 is a zero-byte contact, and a zero Equal Split plan must
// not mark the peer as served).
func TestRandomizedRefsimParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 250
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(28)
		if trial%5 == 4 {
			n = 65 + rng.Intn(136)
		}
		a, err := protocolByID(rng.Intn(swarming.Space().Size()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := protocolByID(rng.Intn(swarming.Space().Size()))
		if err != nil {
			t.Fatal(err)
		}
		caps := bandwidth.Piatek().Stratified(n)
		zeroCaps := trial%4 == 3
		specs := make([]cyclesim.PeerSpec, n)
		for i := range specs {
			p := a
			if i%2 == 1 {
				p = b
			}
			if zeroCaps && rng.Intn(3) == 0 {
				caps[i] = 0
			}
			specs[i] = cyclesim.PeerSpec{Protocol: p, Capacity: caps[i]}
		}
		churn := []float64{0, 0, 0.01, 0.1, 0.5, 1}[rng.Intn(6)]
		var dist *bandwidth.Distribution
		if rng.Intn(2) == 0 {
			dist = bandwidth.Piatek()
		}
		opt := cyclesim.Options{Rounds: 1 + rng.Intn(80), Seed: rng.Int63(), Churn: churn, Replacement: dist}
		if err := matchesRefsim(specs, opt); err != nil {
			t.Fatalf("trial %d (n=%d rounds=%d churn=%v zeroCaps=%v a=%v b=%v): %v",
				trial, n, opt.Rounds, churn, zeroCaps, a, b, err)
		}
	}
}

// matchesRefsim runs specs through the frozen reference and through the
// optimized Run and reports the first peer whose Utility or Spent bits
// differ.
func matchesRefsim(specs []cyclesim.PeerSpec, opt cyclesim.Options) error {
	ref, err := Run(specs, opt)
	if err != nil {
		return err
	}
	got, err := cyclesim.Run(specs, opt)
	if err != nil {
		return err
	}
	for i := range ref.Utility {
		if math.Float64bits(ref.Utility[i]) != math.Float64bits(got.Utility[i]) ||
			math.Float64bits(ref.Spent[i]) != math.Float64bits(got.Spent[i]) {
			return fmt.Errorf("peer %d diverged: utility %v vs %v, spent %v vs %v",
				i, got.Utility[i], ref.Utility[i], got.Spent[i], ref.Spent[i])
		}
	}
	return nil
}

// fuzzChurns is what FuzzRunMatchesRefsim's churn selector picks from.
var fuzzChurns = []float64{0, 0.01, 0.1, 0.5, 1}

// FuzzRunMatchesRefsim lets the fuzzer pick the population — two
// protocol IDs, size, camp split, round count, churn, which peers have
// zero capacity, seed — and requires bit-equal Results from refsim and
// from Run, whose pool every input of the process shares. The corpus is
// seeded with the golden matrix.
func FuzzRunMatchesRefsim(f *testing.F) {
	for _, c := range goldenCases() {
		n := len(c.ProtoIDs)
		nA := 0
		for nA < n && c.ProtoIDs[nA] == c.ProtoIDs[0] {
			nA++
		}
		churnSel := 0
		for i, churn := range fuzzChurns {
			if churn == c.Churn {
				churnSel = i
			}
		}
		f.Add(uint16(c.ProtoIDs[0]), uint16(c.ProtoIDs[n-1]), uint8(n-2), uint8(nA), uint8(c.Rounds-1), uint8(churnSel), uint8(0), c.Seed)
	}
	spaceSize := swarming.Space().Size()
	f.Fuzz(func(t *testing.T, idA, idB uint16, size, split, rounds, churnSel, zeroEvery uint8, seed int64) {
		a, err := protocolByID(int(idA) % spaceSize)
		if err != nil {
			t.Fatal(err)
		}
		b, err := protocolByID(int(idB) % spaceSize)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + int(size)%199 // up to 200 peers: four mask words
		caps := bandwidth.Piatek().Stratified(n)
		specs := make([]cyclesim.PeerSpec, n)
		for i := range specs {
			p := b
			if i < int(split) {
				p = a
			}
			if zeroEvery >= 2 && i%int(zeroEvery) == 0 {
				caps[i] = 0
			}
			specs[i] = cyclesim.PeerSpec{Protocol: p, Capacity: caps[i]}
		}
		opt := cyclesim.Options{Rounds: 1 + int(rounds), Seed: seed, Churn: fuzzChurns[int(churnSel)%len(fuzzChurns)]}
		if int(churnSel)/len(fuzzChurns)%2 == 0 {
			opt.Replacement = bandwidth.Piatek()
		}
		if err := matchesRefsim(specs, opt); err != nil {
			t.Fatalf("a=%v b=%v n=%d split=%d rounds=%d churn=%v zeroEvery=%d seed=%d: %v",
				a, b, n, split, opt.Rounds, opt.Churn, zeroEvery, seed, err)
		}
	})
}

// TestChurnValidation pins the PR 5 bugfix: churn outside [0,1] and
// NaN were silently clamped by the seed (negative/NaN behaved as 0,
// >1 saturated); they are now explicit errors.
func TestChurnValidation(t *testing.T) {
	caps := bandwidth.Piatek().Stratified(4)
	specs := make([]cyclesim.PeerSpec, 4)
	for i := range specs {
		specs[i] = cyclesim.PeerSpec{Protocol: design.BitTorrent(), Capacity: caps[i]}
	}
	for _, churn := range []float64{math.NaN(), -0.01, -1, 1.0000001, 2, math.Inf(1), math.Inf(-1)} {
		if _, err := cyclesim.Run(specs, cyclesim.Options{Rounds: 5, Seed: 1, Churn: churn}); err == nil {
			t.Errorf("churn %v accepted, want error", churn)
		}
	}
	for _, churn := range []float64{0, 0.5, 1} {
		if _, err := cyclesim.Run(specs, cyclesim.Options{Rounds: 5, Seed: 1, Churn: churn, Replacement: bandwidth.Piatek()}); err != nil {
			t.Errorf("churn %v rejected: %v", churn, err)
		}
	}
}
