package dsa_test

// Unit tests of the pieces every domain is built on: the three concept
// functions of concept.go, Base's Assemble and StridePoints.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
)

func conceptCfg() dsa.Config {
	return dsa.Config{Peers: 4, Rounds: 1, PerfRuns: 3, EncounterRuns: 4, Seed: 9, Workers: 4}
}

// intID makes ints their own point IDs; a negative one has none.
func intID(x int) (int, error) {
	if x < 0 {
		return 0, fmt.Errorf("no ID for %d", x)
	}
	return x, nil
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for trial := 0; trial < 20; trial++ {
		err := dsa.ForEach(items, intID, conceptCfg(), func(i, item, id int) error {
			if i%7 == 3 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("err = %v, want item 3's whatever the schedule", err)
		}
	}
	// An item without an ID fails as that item, before fn sees it.
	items[1] = -1
	err := dsa.ForEach(items, intID, conceptCfg(), func(i, item, id int) error {
		if item < 0 {
			t.Error("fn called for an item with no ID")
		}
		return errors.New("later failure")
	})
	if err == nil || err.Error() != "later failure" { // item 0 fails first
		t.Fatalf("err = %v", err)
	}
	err = dsa.ForEach(items[1:], intID, conceptCfg(), func(i, item, id int) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no ID for -1") {
		t.Fatalf("err = %v, want the ID error", err)
	}
	// An invalid config is refused before any item runs.
	err = dsa.ForEach(items, intID, dsa.Config{}, func(int, int, int) error {
		t.Error("fn ran under an invalid config")
		return nil
	})
	if err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestMeanOverRunsSeedsAndMean(t *testing.T) {
	cfg := conceptCfg()
	var mu sync.Mutex
	seeds := map[int][]int64{}
	prepared := atomic.Int64{}
	got, err := dsa.MeanOverRuns([]int{5, 2}, intID, 7, cfg, func(item int) (dsa.Stat, error) {
		prepared.Add(1)
		return func(seed int64) (float64, error) {
			mu.Lock()
			defer mu.Unlock()
			seeds[item] = append(seeds[item], seed)
			return float64(item * len(seeds[item])), nil // item × (1, 2, 3)
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 4 {
		t.Errorf("means = %v, want [10 4]", got)
	}
	if prepared.Load() != 2 {
		t.Errorf("prepare ran %d times for 2 items", prepared.Load())
	}
	for _, item := range []int{5, 2} {
		for r, seed := range seeds[item] {
			if want := dsa.TaskSeed(cfg.Seed, item, 0, r, 7); seed != want {
				t.Errorf("item %d run %d seeded %d, want TaskSeed(master, id, 0, run, kind) = %d", item, r, seed, want)
			}
		}
	}
	// A failed point leaves no partial vector.
	got, err = dsa.MeanOverRuns([]int{5, 2}, intID, 7, cfg, func(item int) (dsa.Stat, error) {
		return func(int64) (float64, error) {
			if item == 2 {
				return 0, errors.New("simulator down")
			}
			return 1, nil
		}, nil
	})
	if err == nil || got != nil {
		t.Errorf("got %v, %v; want nil and the error", got, err)
	}
}

func TestWinFractions(t *testing.T) {
	cfg := conceptCfg()
	var pairings, games atomic.Int64
	// a beats b exactly when a > b; a tie is not a win (strict >).
	pair := func(a, b int) (dsa.Game, error) {
		if a == b {
			t.Errorf("self-play pairing (%d, %d) built", a, b)
		}
		pairings.Add(1)
		return func(seed int64) (float64, float64, error) {
			games.Add(1)
			if b == 99 {
				return 1, 1, nil
			}
			return float64(a), float64(b), nil
		}, nil
	}
	got, err := dsa.WinFractions([]int{1, 3, 5}, []int{1, 2, 5, 99}, intID, 500, cfg, pair)
	if err != nil {
		t.Fatal(err)
	}
	// 1: plays 2, 5, 99 → 0/3. 3: plays all four, beats 1 and 2 → 2/4.
	// 5: plays 1, 2, 99 → 2/3.
	want := []float64{0, 0.5, 2.0 / 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("win fractions = %v, want %v", got, want)
			break
		}
	}
	// One population per pairing, EncounterRuns games on it.
	if pairings.Load() != 10 || games.Load() != 10*int64(cfg.EncounterRuns) {
		t.Errorf("%d pairings built, %d games played; want 10 and %d", pairings.Load(), games.Load(), 10*cfg.EncounterRuns)
	}

	// A panel of nothing but the item itself: no games, score 0, and no
	// 0/0 on the way there.
	got, err = dsa.WinFractions([]int{4}, []int{4, 4}, intID, 500, cfg, pair)
	if err != nil || len(got) != 1 || got[0] != 0 || math.IsNaN(got[0]) {
		t.Errorf("all-self panel scored %v, %v; want [0]", got, err)
	}

	// Errors: an opponent without an ID, a pairing that cannot be built,
	// a game that fails — no partial vector in any case.
	for name, run := range map[string]func() ([]float64, error){
		"panel ID": func() ([]float64, error) {
			return dsa.WinFractions([]int{1}, []int{2, -1}, intID, 500, cfg, pair)
		},
		"pairing": func() ([]float64, error) {
			return dsa.WinFractions([]int{1, 2}, []int{3}, intID, 500, cfg, func(a, b int) (dsa.Game, error) {
				if a == 2 {
					return nil, errors.New("no such population")
				}
				return pair(a, b)
			})
		},
		"game": func() ([]float64, error) {
			return dsa.WinFractions([]int{1, 2}, []int{3}, intID, 500, cfg, func(a, b int) (dsa.Game, error) {
				return func(int64) (float64, float64, error) { return 0, 0, errors.New("crashed") }, nil
			})
		},
	} {
		if got, err := run(); err == nil || got != nil {
			t.Errorf("%s failure: got %v, %v; want nil and the error", name, got, err)
		}
	}
}

func TestBaseAssemble(t *testing.T) {
	space, err := core.NewSpace("s", []core.Dimension{{Name: "x", Values: []string{"a", "b", "c"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := conceptCfg()
	b := dsa.NewBase("s", space, cfg, cfg,
		dsa.Measure{Name: "plain"},
		dsa.Measure{Name: "up", Norm: dsa.MinMax},
		dsa.Measure{Name: "down", Norm: dsa.InvertedMinMax},
	)
	pts := space.Enumerate()
	raw := map[string][]float64{"plain": {0.2, 0.4, 0.9}, "up": {10, 30, 20}, "down": {10, 30, 20}}
	s, err := b.Assemble(pts, raw)
	if err != nil {
		t.Fatal(err)
	}
	for m, want := range map[string][]float64{"plain": {0.2, 0.4, 0.9}, "up": {0, 1, 0.5}, "down": {1, 0, 0.5}} {
		for i := range want {
			if s.Values[m][i] != want[i] {
				t.Errorf("%s values = %v, want %v", m, s.Values[m], want)
				break
			}
		}
	}
	// Raw, Values and the caller's vectors never share a backing array.
	for m := range raw {
		s.Values[m][0], s.Raw[m][1] = -1, -2
		if s.Raw[m][0] == -1 || s.Values[m][1] == -2 || raw[m][0] == -1 || raw[m][1] == -2 {
			t.Errorf("%s: Raw, Values or the input share a backing array", m)
		}
	}
	// An all-equal set is all zeros under both normalisations: the
	// inverted one does not flip it to all ones.
	s, err = b.Assemble(pts, map[string][]float64{"plain": {1, 1, 1}, "up": {7, 7, 7}, "down": {7, 7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"up", "down"} {
		for _, v := range s.Values[m] {
			if v != 0 {
				t.Errorf("all-equal %s normalised to %v, want all zeros", m, s.Values[m])
				break
			}
		}
	}
	// Rejections: a missing measure, a short one, a foreign point.
	short := map[string][]float64{"plain": {1, 2, 3}, "up": {1, 2}, "down": {1, 2, 3}}
	if _, err := b.Assemble(pts, short); err == nil || !strings.Contains(err.Error(), "up has 2 values, want 3") {
		t.Errorf("short measure: err = %v", err)
	}
	delete(short, "up")
	if _, err := b.Assemble(pts, short); err == nil || !strings.Contains(err.Error(), "up has 0 values") {
		t.Errorf("missing measure: err = %v", err)
	}
	for _, foreign := range []core.Point{{3}, {0, 0}, {-1}} {
		if _, err := b.Assemble([]core.Point{foreign}, map[string][]float64{"plain": {1}, "up": {1}, "down": {1}}); err == nil {
			t.Errorf("foreign point %v assembled", foreign)
		}
	}
	if _, err := b.PointID(core.Point{3}); err == nil {
		t.Error("foreign point has an ID")
	}
	if _, err := b.PointByID(3); err == nil {
		t.Error("out-of-range ID decoded")
	}
}

func TestStridePointsTerminatesBelowOne(t *testing.T) {
	d := newToyDomain()
	all := d.Space().Enumerate()
	for _, stride := range []int{1, 0, -3} {
		got := dsa.StridePoints(d, stride)
		if len(got) != len(all) {
			t.Errorf("stride %d: %d points, want the whole space (%d)", stride, len(got), len(all))
		}
	}
	if got := dsa.StridePoints(d, 5); len(got) != 3 || !got[1].Equal(all[5]) {
		t.Errorf("stride 5 over 12 points = %v", got)
	}
	if got := dsa.StridePoints(d, 100); len(got) != 1 {
		t.Errorf("stride past the space = %v, want its first point", got)
	}
}
