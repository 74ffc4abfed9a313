package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func tinySpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace("tiny", []Dimension{
		{Name: "a", Values: []string{"0", "1", "2"}},
		{Name: "b", Values: []string{"x", "y"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace("empty", nil, nil); err == nil {
		t.Error("no dimensions should error")
	}
	if _, err := NewSpace("bad", []Dimension{{Name: "a"}}, nil); err == nil {
		t.Error("empty dimension should error")
	}
}

func TestEnumerateAndSize(t *testing.T) {
	s := tinySpace(t)
	if s.RawSize() != 6 || s.Size() != 6 {
		t.Errorf("sizes = %d/%d, want 6/6", s.RawSize(), s.Size())
	}
	pts := s.Enumerate()
	if !pts[0].Equal(Point{0, 0}) || !pts[5].Equal(Point{2, 1}) {
		t.Errorf("enumeration order wrong: %v", pts)
	}
}

func TestConstraintFilters(t *testing.T) {
	s, err := NewSpace("constrained", []Dimension{
		{Name: "a", Values: []string{"0", "1", "2"}},
		{Name: "b", Values: []string{"0", "1", "2"}},
	}, func(p Point) bool { return p[0] != p[1] })
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 {
		t.Errorf("constrained size = %d, want 6", s.Size())
	}
	if s.Valid(Point{1, 1}) {
		t.Error("constraint should reject diagonal")
	}
	if !s.Valid(Point{0, 1}) {
		t.Error("valid point rejected")
	}
	if s.Valid(Point{0}) || s.Valid(Point{0, 9}) {
		t.Error("shape violations should be invalid")
	}
}

func TestNeighbors(t *testing.T) {
	s := tinySpace(t)
	nb := s.Neighbors(Point{0, 0})
	// 2 alternatives in dim a + 1 in dim b = 3 neighbours.
	if len(nb) != 3 {
		t.Fatalf("neighbours = %v", nb)
	}
	for _, q := range nb {
		diff := 0
		for d := range q {
			if q[d] != 0 {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("neighbour %v differs in %d dims", q, diff)
		}
	}
}

func TestDescribeAndKey(t *testing.T) {
	s := tinySpace(t)
	if got := s.Describe(Point{1, 0}); got != "a=1 b=x" {
		t.Errorf("Describe = %q", got)
	}
	if Point([]int{1, 2}).Key() != "1,2" {
		t.Error("Key format changed")
	}
	if (Point{1}).Equal(Point{1, 2}) {
		t.Error("length mismatch should not be equal")
	}
}

// quadratic is a deterministic objective with a unique optimum at the
// max indices.
func quadratic(s *Space) Objective {
	return func(p Point) (float64, error) {
		v := 0.0
		for d, x := range p {
			best := float64(len(s.Dimensions[d].Values) - 1)
			v -= (float64(x) - best) * (float64(x) - best)
		}
		return v, nil
	}
}

func TestExhaustiveBest(t *testing.T) {
	s := tinySpace(t)
	evals, err := ExhaustiveBest(s, quadratic(s))
	if err != nil {
		t.Fatal(err)
	}
	if !evals[0].Point.Equal(Point{2, 1}) || evals[0].Score != 0 {
		t.Errorf("best = %+v", evals[0])
	}
	if len(evals) != 6 {
		t.Errorf("evals = %d", len(evals))
	}
	for i := 1; i < len(evals); i++ {
		if evals[i].Score > evals[i-1].Score {
			t.Error("evaluations not sorted best-first")
		}
	}
}

func TestExhaustiveBestPropagatesError(t *testing.T) {
	s := tinySpace(t)
	boom := errors.New("boom")
	if _, err := ExhaustiveBest(s, func(Point) (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestHillClimbFindsOptimumOnSmooth(t *testing.T) {
	s, err := NewSpace("smooth", []Dimension{
		{Name: "a", Values: []string{"0", "1", "2", "3", "4"}},
		{Name: "b", Values: []string{"0", "1", "2", "3", "4"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, calls, err := HillClimb(s, quadratic(s), HillClimbConfig{Restarts: 3, MaxSteps: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !best.Point.Equal(Point{4, 4}) {
		t.Errorf("hill climb best = %+v", best)
	}
	if calls <= 0 || calls > s.Size() {
		t.Errorf("calls = %d (cache should bound by space size)", calls)
	}
}

func TestHillClimbConfigValidation(t *testing.T) {
	s := tinySpace(t)
	if _, _, err := HillClimb(s, quadratic(s), HillClimbConfig{}); err == nil {
		t.Error("zero config should error")
	}
}

func TestEvolveFindsGoodPoint(t *testing.T) {
	s, err := NewSpace("evo", []Dimension{
		{Name: "a", Values: []string{"0", "1", "2", "3", "4", "5", "6", "7"}},
		{Name: "b", Values: []string{"0", "1", "2", "3", "4", "5", "6", "7"}},
		{Name: "c", Values: []string{"0", "1", "2", "3"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, calls, err := Evolve(s, quadratic(s), EvolveConfig{Population: 20, Generations: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Score < -2 { // optimum is 0; allow near-misses
		t.Errorf("evolve best = %+v", best)
	}
	if calls <= 0 {
		t.Error("no objective calls recorded")
	}
}

func TestEvolveConfigValidation(t *testing.T) {
	s := tinySpace(t)
	if _, _, err := Evolve(s, quadratic(s), EvolveConfig{Population: 1, Generations: 1}); err == nil {
		t.Error("population 1 should error")
	}
}

func TestExplorersDeterministic(t *testing.T) {
	// A constrained space of the swarming space's shape (six dimensions,
	// canonical-zero rules), with a cheap synthetic objective.
	dims := make([]Dimension, 6)
	for d, n := range []int{4, 4, 2, 6, 10, 3} {
		dims[d] = Dimension{Name: string(rune('a' + d)), Values: make([]string, n)}
	}
	s, err := NewSpace("shaped", dims, func(p Point) bool {
		return (p[0] != 0 || p[1] == 0) && (p[4] != 0 || p[2]+p[3] == 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := func(p Point) (float64, error) {
		h := 0
		for _, v := range p {
			h = h*31 + v
		}
		return float64(h%97) / 97, nil
	}
	a, _, err := HillClimb(s, obj, HillClimbConfig{Restarts: 2, MaxSteps: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := HillClimb(s, obj, HillClimbConfig{Restarts: 2, MaxSteps: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Point.Equal(b.Point) || a.Score != b.Score {
		t.Error("hill climb not deterministic")
	}
	e1, _, err := Evolve(s, obj, EvolveConfig{Population: 10, Generations: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := Evolve(s, obj, EvolveConfig{Population: 10, Generations: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !e1.Point.Equal(e2.Point) || e1.Score != e2.Score {
		t.Error("evolve not deterministic")
	}
}

func TestParetoFront(t *testing.T) {
	xs := []float64{1, 2, 3, 0.5}
	ys := []float64{3, 2, 1, 0.5}
	front := ParetoFront(xs, ys)
	if len(front) != 3 {
		t.Fatalf("front = %v, want first three points", front)
	}
	for _, i := range front {
		if i == 3 {
			t.Error("dominated point on front")
		}
	}
	if ParetoFront([]float64{1}, []float64{1, 2}) != nil {
		t.Error("length mismatch should return nil")
	}
}

func TestParetoFrontProperty(t *testing.T) {
	// Property: no point on the front is dominated by any input point.
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			if math.IsNaN(raw[i]) || math.IsNaN(raw[n+i]) {
				return true
			}
			xs[i], ys[i] = raw[i], raw[n+i]
		}
		for _, i := range ParetoFront(xs, ys) {
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				if xs[j] >= xs[i] && ys[j] >= ys[i] && (xs[j] > xs[i] || ys[j] > ys[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEnumerateConcurrent pins the sync.Once guard on the lazy
// enumeration cache: the job engine's workers enumerate shared spaces
// concurrently, so first-use must be race-free (run with -race).
func TestEnumerateConcurrent(t *testing.T) {
	s, err := NewSpace("concurrent", []Dimension{
		{Name: "a", Values: []string{"0", "1", "2", "3"}},
		{Name: "b", Values: []string{"0", "1", "2"}},
		{Name: "c", Values: []string{"0", "1"}},
	}, func(p Point) bool { return p[0] != p[1] })
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([][]Point, 8)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = s.Enumerate()
		}()
	}
	wg.Wait()
	for i, pts := range results {
		if len(pts) != s.Size() {
			t.Fatalf("goroutine %d saw %d points, want %d", i, len(pts), s.Size())
		}
	}
}
