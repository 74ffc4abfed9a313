// Package core is the Design Space Analysis framework of Section 3: it
// separates the *specification* of a design space (Parameterization:
// naming the salient dimensions; Actualization: listing concrete values
// per dimension) from its *analysis* by a solution concept.
//
// The package is the Space and nothing else: a constrained cartesian
// product of named dimensions with its enumeration, validity and
// neighbourhood. The file-swarming space of Section 4, the gossip space
// of Section 3.1 and the delivery space are all expressed in these
// terms, each in its own domain package (pra, gossip, delivery); what
// analyses a space — the sweep engine and the Section 7 explorers — is
// internal/job, over a dsa.Domain. core imports no package of this
// module.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Dimension is one salient design dimension (Parameterization) together
// with its concrete values (Actualization).
type Dimension struct {
	Name   string
	Values []string
}

// Point is a vector of value indices, one per dimension.
type Point []int

// Space is a constrained cartesian product of dimensions. Constraint
// (optional) rejects invalid combinations; rejected points are excluded
// from enumeration and never scored.
type Space struct {
	Name       string
	Dimensions []Dimension
	Constraint func(Point) bool

	enumOnce sync.Once
	valid    []Point // canonical enumeration, built once under enumOnce
	ids      []int32 // mixed-radix code → index into valid, -1 where the constraint rejects
}

// NewSpace builds a space after validating the dimensions.
func NewSpace(name string, dims []Dimension, constraint func(Point) bool) (*Space, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("core: space %q needs at least one dimension", name)
	}
	for _, d := range dims {
		if len(d.Values) == 0 {
			return nil, fmt.Errorf("core: dimension %q has no values", d.Name)
		}
	}
	return &Space{Name: name, Dimensions: dims, Constraint: constraint}, nil
}

// Enumerate returns every valid point in lexicographic order. The
// result is cached and must not be mutated. Safe for concurrent use:
// the job engine's workers enumerate shared spaces. The same walk over
// the cartesian product builds Index's table.
func (s *Space) Enumerate() []Point {
	s.enumOnce.Do(func() {
		var out []Point
		var ids []int32
		p := make(Point, len(s.Dimensions))
		var rec func(d int)
		rec = func(d int) {
			if d == len(s.Dimensions) {
				// Leaves arrive in mixed-radix code order, so the leaf's
				// code is len(ids).
				if s.Constraint == nil || s.Constraint(p) {
					ids = append(ids, int32(len(out)))
					out = append(out, slices.Clone(p))
				} else {
					ids = append(ids, -1)
				}
				return
			}
			for v := range s.Dimensions[d].Values {
				p[d] = v
				rec(d + 1)
			}
		}
		rec(0)
		s.valid, s.ids = out, ids
	})
	return s.valid
}

// Index returns p's position in Enumerate(), read from a dense table
// indexed by p's mixed-radix code; ok is false when p has the wrong
// length, a coordinate out of range or is rejected by the constraint.
func (s *Space) Index(p Point) (id int, ok bool) {
	s.Enumerate()
	if len(p) != len(s.Dimensions) {
		return 0, false
	}
	code := 0
	for d, v := range p {
		n := len(s.Dimensions[d].Values)
		if v < 0 || v >= n {
			return 0, false
		}
		code = code*n + v
	}
	id = int(s.ids[code])
	return id, id >= 0
}

// Size returns the number of valid points.
func (s *Space) Size() int { return len(s.Enumerate()) }

// Describe renders a point as "dim=value" pairs.
func (s *Space) Describe(p Point) string {
	parts := make([]string, len(p))
	for d, v := range p {
		parts[d] = s.Dimensions[d].Name + "=" + s.Dimensions[d].Values[v]
	}
	return strings.Join(parts, " ")
}

// Valid reports whether p satisfies dimension bounds and the constraint.
func (s *Space) Valid(p Point) bool {
	if len(p) != len(s.Dimensions) {
		return false
	}
	for d, v := range p {
		if v < 0 || v >= len(s.Dimensions[d].Values) {
			return false
		}
	}
	return s.Constraint == nil || s.Constraint(p)
}

// Neighbors returns all valid points that differ from p in exactly one
// dimension — the move set of the hill-climbing explorer.
func (s *Space) Neighbors(p Point) []Point {
	var out []Point
	for d := range s.Dimensions {
		for v := range s.Dimensions[d].Values {
			if v == p[d] {
				continue
			}
			q := make(Point, len(p))
			copy(q, p)
			q[d] = v
			if s.Valid(q) {
				out = append(out, q)
			}
		}
	}
	return out
}

// Key returns a map key for a point: the indices in decimal, comma
// separated.
func (p Point) Key() string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Equal reports whether two points are identical.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}
