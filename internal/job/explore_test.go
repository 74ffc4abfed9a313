package job

// The explorer as a search: it finds optima, validates its config,
// repeats under a seed, returns the same thing with no cache, a cold and a
// warm one, surfaces a simulator failure without caching it, and journals
// one span per restart without changing a result. All on a
// synthetic domain with exact control over scores and failures;
// explore_golden_test.go pins the real domains' values.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// exploreDomain scores a space's points by a pure function of (measure,
// point, ID) — never of slice composition, the contract real domains
// honour — counts how it was asked, and can be told to fail on a point.
type exploreDomain struct {
	space    *core.Space
	measures []string
	score    func(measure string, p core.Point, id int) float64
	ids      map[string]int

	calls  atomic.Int64 // ScoreSlice invocations
	sims   atomic.Int64 // points scored, over all calls
	failOn atomic.Int64 // the point ID whose scoring fails; -1 = none
}

func newExploreDomain(t *testing.T, dims []core.Dimension, constraint func(core.Point) bool, measures []string, score func(string, core.Point, int) float64) *exploreDomain {
	t.Helper()
	space, err := core.NewSpace("explore-test", dims, constraint)
	if err != nil {
		t.Fatal(err)
	}
	d := &exploreDomain{space: space, measures: measures, score: score, ids: map[string]int{}}
	for i, p := range space.Enumerate() {
		d.ids[p.Key()] = i
	}
	d.failOn.Store(-1)
	return d
}

func dims(sizes ...int) []core.Dimension {
	out := make([]core.Dimension, len(sizes))
	for d, n := range sizes {
		out[d] = core.Dimension{Name: string(rune('a' + d)), Values: make([]string, n)}
	}
	return out
}

func (d *exploreDomain) Name() string       { return "explore-test" }
func (d *exploreDomain) Space() *core.Space { return d.space }
func (d *exploreDomain) PointID(p core.Point) (int, error) {
	id, ok := d.ids[p.Key()]
	if !ok {
		return 0, fmt.Errorf("explore-test: unknown point %v", p)
	}
	return id, nil
}
func (d *exploreDomain) PointByID(id int) (core.Point, error)    { return d.space.Enumerate()[id], nil }
func (d *exploreDomain) Label(p core.Point) string               { return p.Key() }
func (d *exploreDomain) Measures() []string                      { return d.measures }
func (d *exploreDomain) SampleOpponents(dsa.Config) []core.Point { return nil }
func (d *exploreDomain) DefaultConfig(string) (dsa.Config, error) {
	return exploreCfg(), nil
}
func (d *exploreDomain) Assemble(pts []core.Point, raw map[string][]float64) (*dsa.Scores, error) {
	return &dsa.Scores{Domain: d.Name(), Points: pts, Raw: raw, Values: raw}, nil
}

var errExploreScore = errors.New("explore-test: simulator blew up")

func (d *exploreDomain) ScoreSlice(measure string, pts, _ []core.Point, _ dsa.Config) ([]float64, error) {
	d.calls.Add(1)
	out := make([]float64, len(pts))
	for i, p := range pts {
		id, err := d.PointID(p)
		if err != nil {
			return nil, err
		}
		if int64(id) == d.failOn.Load() {
			return nil, errExploreScore
		}
		d.sims.Add(1)
		out[i] = d.score(measure, p, id)
	}
	return out, nil
}

func exploreCfg() dsa.Config {
	return dsa.Config{Peers: 4, Rounds: 2, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 11}
}

// quadraticDomain has one measure with a unique optimum at the max
// indices.
func quadraticDomain(t *testing.T, sizes ...int) *exploreDomain {
	return newExploreDomain(t, dims(sizes...), nil, []string{"score"}, func(_ string, p core.Point, _ int) float64 {
		v := 0.0
		for d, x := range p {
			off := float64(x - (sizes[d] - 1))
			v -= off * off
		}
		return v
	})
}

// seededDomain is a 4×3 space with two measures seeded from point
// identity, like the real domains.
func seededDomain(t *testing.T) *exploreDomain {
	return newExploreDomain(t, dims(4, 3), nil, []string{"alpha", "beta"}, func(m string, _ core.Point, id int) float64 {
		kind := 1
		if m == "beta" {
			kind = 2
		}
		return float64(dsa.TaskSeed(exploreCfg().Seed, id, 0, 0, kind)%1000) / 1000
	})
}

var (
	bg          = context.Background()
	one         = Weights{"score": 1}
	seededBlend = Weights{"alpha": 1, "beta": 0.5}
	seededHC    = HillClimbConfig{Restarts: 3, MaxSteps: 20, Seed: 42}
)

func TestHillClimbFindsOptimumOnSmooth(t *testing.T) {
	d := quadraticDomain(t, 5, 5)
	best, calls, err := HillClimb(bg, d, one, exploreCfg(), HillClimbConfig{Restarts: 3, MaxSteps: 20, Seed: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !best.Point.Equal(core.Point{4, 4}) {
		t.Errorf("hill climb best = %+v", best)
	}
	if calls <= 0 || calls > d.space.Size() {
		t.Errorf("calls = %d (the memo should bound them by the space size)", calls)
	}
	if int64(calls) != d.sims.Load() {
		t.Errorf("%d objective calls, %d points simulated: a point is scored once per search", calls, d.sims.Load())
	}
	if d.calls.Load() >= d.sims.Load() {
		t.Errorf("%d ScoreSlice calls for %d points: the search should score its neighbours as batches", d.calls.Load(), d.sims.Load())
	}
}

func TestHillClimbConfigValidation(t *testing.T) {
	d := quadraticDomain(t, 3, 2)
	ok := HillClimbConfig{Restarts: 1, MaxSteps: 1}
	for _, tc := range []struct {
		name string
		w    Weights
		cfg  dsa.Config
		hcfg HillClimbConfig
		want string // in the error
	}{
		{"zero config", one, exploreCfg(), HillClimbConfig{}, "Restarts"},
		{"empty weights", nil, exploreCfg(), ok, "weights no measure"},
		{"unknown measure", Weights{"bogus": 1}, exploreCfg(), ok, `"bogus"`},
		{"invalid sweep config", one, dsa.Config{}, ok, ""},
		{"all-zero weights", Weights{"score": 0}, exploreCfg(), ok, "score:0"},
		{"NaN weight", Weights{"score": math.NaN()}, exploreCfg(), ok, `"score"`},
		{"+Inf weight", Weights{"score": math.Inf(1)}, exploreCfg(), ok, `"score"`},
		{"-Inf weight", Weights{"score": math.Inf(-1)}, exploreCfg(), ok, `"score"`},
	} {
		if _, _, err := HillClimb(bg, d, tc.w, tc.cfg, tc.hcfg, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestExplorersDeterministic(t *testing.T) {
	// A constrained space of the swarming space's shape (six dimensions,
	// canonical-zero rules), with a cheap synthetic objective.
	d := newExploreDomain(t, dims(4, 4, 2, 6, 10, 3), func(p core.Point) bool {
		return (p[0] != 0 || p[1] == 0) && (p[4] != 0 || p[2]+p[3] == 0)
	}, []string{"score"}, func(_ string, p core.Point, _ int) float64 {
		h := 0
		for _, v := range p {
			h = h*31 + v
		}
		return float64(h%97) / 97
	})
	hcfg := HillClimbConfig{Restarts: 2, MaxSteps: 10, Seed: 7}
	a, aCalls, err := HillClimb(bg, d, one, exploreCfg(), hcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, bCalls, err := HillClimb(bg, d, one, exploreCfg(), hcfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || aCalls != bCalls {
		t.Error("hill climb not deterministic")
	}
	if !d.space.Valid(a.Point) {
		t.Errorf("hill climb best %v is off the constrained space", a.Point)
	}
}

// TestExplorersCacheParity: results are identical with no cache, a
// cold cache and a warm cache — and the warm run simulates nothing.
func TestExplorersCacheParity(t *testing.T) {
	bare := seededDomain(t)
	hcBare, _, err := HillClimb(bg, bare, seededBlend, exploreCfg(), seededHC, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	cold := seededDomain(t)
	hcCold, _, err := HillClimb(bg, cold, seededBlend, exploreCfg(), seededHC, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hcBare, hcCold) {
		t.Fatalf("cold cache changed hill climb: %v vs %v", hcBare, hcCold)
	}
	if cold.sims.Load() == 0 {
		t.Fatal("cold run should simulate")
	}

	warm := seededDomain(t)
	hcWarm, _, err := HillClimb(bg, warm, seededBlend, exploreCfg(), seededHC, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hcBare, hcWarm) {
		t.Fatalf("warm cache changed hill climb: %v vs %v", hcBare, hcWarm)
	}
	if n := warm.calls.Load(); n != 0 {
		t.Fatalf("warm hill climb made %d simulator calls, want 0", n)
	}
}

// TestScoreSliceErrorMidExploration: a simulator that fails on one
// point the search reaches surfaces as the explorer's error — with and
// without a cache — and nothing of the failed batch is cached as a
// value, so a recovered simulator gives the reference result.
func TestScoreSliceErrorMidExploration(t *testing.T) {
	ref, _, err := HillClimb(bg, seededDomain(t), seededBlend, exploreCfg(), seededHC, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The climb's optimum is reached as some step's neighbour, after
	// earlier batches have succeeded.
	d := seededDomain(t)
	failID, err := d.PointID(ref.Point)
	if err != nil {
		t.Fatal(err)
	}
	d.failOn.Store(int64(failID))
	if _, _, err := HillClimb(bg, d, seededBlend, exploreCfg(), seededHC, nil, nil); !errors.Is(err, errExploreScore) {
		t.Fatalf("hill climb error = %v, want the simulator failure", err)
	}
	if d.sims.Load() == 0 {
		t.Fatal("the failure should come mid-search, after some points scored")
	}

	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cached := seededDomain(t)
	cached.failOn.Store(int64(failID))
	if _, _, err := HillClimb(bg, cached, seededBlend, exploreCfg(), seededHC, store, nil); !errors.Is(err, errExploreScore) {
		t.Fatalf("cached hill climb error = %v, want the simulator failure", err)
	}
	// The simulator recovers; the failed batch must re-run (an error
	// that got cached would resurface here as a wrong value or a repeat
	// failure).
	cached.failOn.Store(-1)
	best, _, err := HillClimb(bg, cached, seededBlend, exploreCfg(), seededHC, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(best, ref) {
		t.Fatalf("post-recovery result %v differs from reference %v", best, ref)
	}
}

// TestTracedExplorersIdentical pins the observation contract on the
// explorer: a search with a recorder returns exactly what one with nil
// does — same best point, same call count — and the journal carries one
// restart span per restart under a single "explore" root, and nothing of
// the sweeps underneath.
func TestTracedExplorersIdentical(t *testing.T) {
	d := seededDomain(t)
	hcPlain, hcCalls, err := HillClimb(bg, d, seededBlend, exploreCfg(), seededHC, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rec, err := obs.OpenDir(dir, "explorer")
	if err != nil {
		t.Fatal(err)
	}
	hcTraced, hcTracedCalls, err := HillClimb(bg, d, seededBlend, exploreCfg(), seededHC, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	// A failed search journals nothing: its root is dropped.
	failID, _ := d.PointID(hcPlain.Point)
	d.failOn.Store(int64(failID))
	if _, _, err := HillClimb(bg, d, seededBlend, exploreCfg(), seededHC, nil, rec); err == nil {
		t.Fatal("a search whose optimum fails to score should fail")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(hcTraced, hcPlain) || hcTracedCalls != hcCalls {
		t.Errorf("traced HillClimb diverged: %+v/%d vs %+v/%d", hcTraced, hcTracedCalls, hcPlain, hcCalls)
	}

	recs, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var roots []obs.Record
	for _, r := range recs {
		if r.Name == "explore" {
			roots = append(roots, r)
		}
	}
	if len(roots) != 1 || roots[0].AttrStr("explorer") != "hillclimb" {
		t.Fatalf("explore roots = %+v, want the successful search's alone", roots)
	}
	restarts, restartCalls := 0, int64(0)
	for _, r := range recs {
		switch r.Name {
		case "explore":
		case "restart":
			restarts++
			restartCalls += r.AttrInt("calls")
			if r.Parent != roots[0].ID {
				t.Errorf("restart span parented under %d, want %d", r.Parent, roots[0].ID)
			}
		default:
			t.Errorf("span %q in an explorer's journal: the batches' sweeps are not traced", r.Name)
		}
	}
	if restarts != seededHC.Restarts {
		t.Errorf("restart spans = %d, want %d", restarts, seededHC.Restarts)
	}
	// Restart call counts sum to the search total (memoisation makes
	// later restarts cheaper, never double-counted).
	if restartCalls != int64(hcCalls) {
		t.Errorf("restart span calls sum to %d, want %d", restartCalls, hcCalls)
	}
	if got := roots[0].AttrInt("calls"); got != int64(hcCalls) {
		t.Errorf("hillclimb root calls = %d, want %d", got, hcCalls)
	}
}
