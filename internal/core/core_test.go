package core

import (
	"sync"
	"testing"
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
	if s.Size() != 6 {
		t.Errorf("size = %d, want 6", s.Size())
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
