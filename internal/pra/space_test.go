package pra

import (
	"testing"

	"repro/internal/core"
	"repro/internal/design"
)

func TestSpaceMatchesDesign(t *testing.T) {
	s := Space()
	if s.Size() != design.SpaceSize {
		t.Fatalf("space size = %d, want %d", s.Size(), design.SpaceSize)
	}
	// Round-trip every point through design.Protocol.
	seen := map[int]bool{}
	for _, p := range s.Enumerate() {
		proto, err := FromPoint(p)
		if err != nil {
			t.Fatalf("point %v invalid: %v", p, err)
		}
		id := design.ID(proto)
		if seen[id] {
			t.Fatalf("duplicate protocol id %d", id)
		}
		seen[id] = true
		back := ToPoint(proto)
		if !back.Equal(p) {
			t.Fatalf("round trip %v → %v", p, back)
		}
	}
}

func TestFromPointErrors(t *testing.T) {
	if _, err := FromPoint(core.Point{1, 2}); err == nil {
		t.Error("wrong arity should error")
	}
	// StrangerNone with h=2 violates canonical form.
	if _, err := FromPoint(core.Point{0, 2, 0, 0, 4, 0}); err == nil {
		t.Error("non-canonical point should error")
	}
}
