package pra

import (
	"testing"

	"repro/internal/core"
)

func TestSpaceMatchesDesign(t *testing.T) {
	// Round-trip every point through design.Protocol; the domain's ID of
	// a point is its position in the cached enumeration.
	for i, p := range Domain().Space().Enumerate() {
		proto, err := FromPoint(p)
		if err != nil {
			t.Fatalf("point %v invalid: %v", p, err)
		}
		if back := ToPoint(proto); !back.Equal(p) {
			t.Fatalf("round trip %v → %v", p, back)
		}
		if id, err := base.PointID(p); err != nil || id != i {
			t.Fatalf("PointID(%v) = %d, %v; want %d", p, id, err, i)
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
