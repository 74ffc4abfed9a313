package dsa_test

// The cache-key sensitivity rules ("a mismatched anything is a miss,
// never a wrong hit") and the edges of the panel sampler and the task
// seed. (The explorer's own tests live with it in internal/job.)
//
// The keyer runs on a small in-test fake domain rather than the real
// simulators: the properties under test are engine properties, and the
// fake gives exact control over scores.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
)

// fakeDomain is a tiny two-dimensional space with synthetic scores:
// deterministic functions of (measure, point ID, seed), never of slice
// composition — the same contract real domains honour.
type fakeDomain struct {
	name    string
	version int // reported via ScoreVersion
	space   *core.Space
	index   map[string]int
	points  []core.Point
}

func newFakeDomain(t *testing.T) *fakeDomain {
	t.Helper()
	space, err := core.NewSpace("fake", []core.Dimension{
		{Name: "x", Values: []string{"a", "b", "c", "d"}},
		{Name: "y", Values: []string{"p", "q", "r"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDomain{name: "fake-explore", space: space, index: map[string]int{}}
	d.points = space.Enumerate()
	for i, p := range d.points {
		d.index[p.Key()] = i
	}
	return d
}

func (d *fakeDomain) Name() string       { return d.name }
func (d *fakeDomain) Space() *core.Space { return d.space }
func (d *fakeDomain) ScoreVersion() int  { return d.version }

func (d *fakeDomain) PointID(p core.Point) (int, error) {
	id, ok := d.index[p.Key()]
	if !ok {
		return 0, fmt.Errorf("fake: unknown point %v", p)
	}
	return id, nil
}

func (d *fakeDomain) PointByID(id int) (core.Point, error) {
	if id < 0 || id >= len(d.points) {
		return nil, fmt.Errorf("fake: id %d out of range", id)
	}
	return d.points[id], nil
}

func (d *fakeDomain) Label(p core.Point) string { return p.Key() }
func (d *fakeDomain) Measures() []string        { return []string{"alpha", "beta"} }

func (d *fakeDomain) DefaultConfig(string) (dsa.Config, error) {
	return fakeCfg(), nil
}

func fakeCfg() dsa.Config {
	return dsa.Config{Peers: 4, Rounds: 2, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 11}
}

func (d *fakeDomain) SampleOpponents(cfg dsa.Config) []core.Point {
	return dsa.SamplePanel(d.space.Enumerate(), cfg.Opponents, cfg.Seed)
}

func (d *fakeDomain) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	kind := 1
	if measure == "beta" {
		kind = 2
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		id, err := d.PointID(p)
		if err != nil {
			return nil, err
		}
		// Point-identity seeding, like the real domains.
		out[i] = float64(dsa.TaskSeed(cfg.Seed, id, 0, 0, kind)%1000) / 1000
	}
	return out, nil
}

func (d *fakeDomain) Assemble(pts []core.Point, raw map[string][]float64) (*dsa.Scores, error) {
	return &dsa.Scores{Domain: d.name, Points: pts, Raw: raw, Values: raw}, nil
}

// TestScoreKeyerSensitivity pins the invalidation rules: every
// score-relevant input changes the key; the speed-only knob does not.
func TestScoreKeyerSensitivity(t *testing.T) {
	d := newFakeDomain(t)
	cfg := fakeCfg()
	opponents := d.SampleOpponents(cfg)
	baseKeyer, err := dsa.NewScoreKeyer(d, opponents, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := baseKeyer.Key("alpha", 1)

	keyWith := func(name string, mutate func(d *fakeDomain, cfg *dsa.Config, opps *[]core.Point, measure *string, id *int)) dsa.CacheKey {
		t.Helper()
		d2 := newFakeDomain(t)
		cfg2 := fakeCfg()
		opps2 := opponents
		measure, id := "alpha", 1
		mutate(d2, &cfg2, &opps2, &measure, &id)
		k, err := dsa.NewScoreKeyer(d2, opps2, cfg2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return k.Key(measure, id)
	}

	same := keyWith("identical", func(*fakeDomain, *dsa.Config, *[]core.Point, *string, *int) {})
	if same != base {
		t.Fatal("identical context should derive identical keys")
	}
	workers := keyWith("workers", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.Workers = 9 })
	if workers != base {
		t.Fatal("Workers is speed-only and must not change the key")
	}

	differs := map[string]dsa.CacheKey{
		"measure":        keyWith("measure", func(_ *fakeDomain, _ *dsa.Config, _ *[]core.Point, m *string, _ *int) { *m = "beta" }),
		"point id":       keyWith("point id", func(_ *fakeDomain, _ *dsa.Config, _ *[]core.Point, _ *string, id *int) { *id = 2 }),
		"domain name":    keyWith("domain name", func(d *fakeDomain, _ *dsa.Config, _ *[]core.Point, _ *string, _ *int) { d.name = "other" }),
		"domain version": keyWith("domain version", func(d *fakeDomain, _ *dsa.Config, _ *[]core.Point, _ *string, _ *int) { d.version = 1 }),
		"seed":           keyWith("seed", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.Seed = 99 }),
		"peers":          keyWith("peers", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.Peers = 16 }),
		"rounds":         keyWith("rounds", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.Rounds = 7 }),
		"perf runs":      keyWith("perf runs", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.PerfRuns = 5 }),
		"encounter runs": keyWith("encounter runs", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.EncounterRuns = 5 }),
		"opponents knob": keyWith("opponents knob", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.Opponents = 2 }),
		"churn":          keyWith("churn", func(_ *fakeDomain, c *dsa.Config, _ *[]core.Point, _ *string, _ *int) { c.Churn = 0.1 }),
		"panel": keyWith("panel", func(d *fakeDomain, _ *dsa.Config, opps *[]core.Point, _ *string, _ *int) {
			*opps = d.Space().Enumerate()[:2]
		}),
	}
	seen := map[dsa.CacheKey]string{base: "base"}
	for name, k := range differs {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collided with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestSamplePanelEdges pins the documented edge-size policy (these
// return values are part of sweep results: changing them would change
// every score computed against a sampled panel).
func TestSamplePanelEdges(t *testing.T) {
	all := []int{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		name string
		n    int
		want int // -1 = exactly `all`, aliased
	}{
		{"zero means full set", 0, -1},
		{"negative means full set", -5, -1},
		{"size equals population", 5, -1},
		{"size exceeds population", 7, -1},
		{"normal sample", 3, 3},
		{"single", 1, 1},
	} {
		got := dsa.SamplePanel(all, tc.n, 1)
		if tc.want == -1 {
			if !reflect.DeepEqual(got, all) {
				t.Errorf("%s: got %v, want the full set", tc.name, got)
			}
			continue
		}
		if len(got) != tc.want {
			t.Errorf("%s: got %d elements, want %d", tc.name, len(got), tc.want)
		}
		members := map[int]bool{}
		for _, v := range all {
			members[v] = true
		}
		for _, v := range got {
			if !members[v] {
				t.Errorf("%s: sampled %v which is not in the population", tc.name, v)
			}
		}
	}

	// Empty population: empty result for any requested size, no panic.
	for _, n := range []int{-1, 0, 1, 10} {
		if got := dsa.SamplePanel([]int{}, n, 1); len(got) != 0 {
			t.Errorf("empty population, n=%d: got %v", n, got)
		}
	}

	// Determinism and seed sensitivity.
	a := dsa.SamplePanel(all, 3, 7)
	b := dsa.SamplePanel(all, 3, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different panels: %v vs %v", a, b)
	}
}

// TestTaskSeedEdges: TaskSeed must be total and non-negative for every
// input — including the negative IDs and run indices a buggy caller
// might produce — and must actually vary with each identity component.
func TestTaskSeedEdges(t *testing.T) {
	inputs := [][5]int64{
		{0, 0, 0, 0, 0},
		{-1, -2, -3, -4, -5},
		{1 << 62, -(1 << 62), 1 << 30, -(1 << 30), 999},
		{42, 3269, 3268, 9, 500},
	}
	for _, in := range inputs {
		s := dsa.TaskSeed(in[0], int(in[1]), int(in[2]), int(in[3]), int(in[4]))
		if s < 0 {
			t.Errorf("TaskSeed%v = %d, want non-negative", in, s)
		}
		if again := dsa.TaskSeed(in[0], int(in[1]), int(in[2]), int(in[3]), int(in[4])); again != s {
			t.Errorf("TaskSeed%v not deterministic: %d vs %d", in, s, again)
		}
	}
	base := dsa.TaskSeed(1, 2, 3, 4, 5)
	for name, s := range map[string]int64{
		"master": dsa.TaskSeed(2, 2, 3, 4, 5),
		"a":      dsa.TaskSeed(1, 9, 3, 4, 5),
		"b":      dsa.TaskSeed(1, 2, 9, 4, 5),
		"run":    dsa.TaskSeed(1, 2, 3, 9, 5),
		"kind":   dsa.TaskSeed(1, 2, 3, 4, 9),
	} {
		if s == base {
			t.Errorf("changing %s did not change the seed", name)
		}
	}
}
