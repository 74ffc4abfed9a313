package design_test

// The actualized space is enumerated by the swarming domain (package
// pra), like every domain's space; these tests hold that enumeration to
// the Section 4.2 counts and to this package's canonical form.

import (
	"testing"
	"testing/quick"

	"repro/internal/design"
	"repro/internal/pra"
)

// protocols returns the swarming space decoded, in ID order.
func protocols(t *testing.T) []design.Protocol {
	t.Helper()
	ps, err := pra.Protocols(pra.Domain().Space().Enumerate())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// roundTrip returns the protocol at p's point ID in the swarming domain.
func roundTrip(p design.Protocol) (design.Protocol, error) {
	d := pra.Domain()
	id, err := d.PointID(pra.ToPoint(p))
	if err != nil {
		return design.Protocol{}, err
	}
	pt, err := d.PointByID(id)
	if err != nil {
		return design.Protocol{}, err
	}
	return pra.FromPoint(pt)
}

func TestSpaceSizeMatchesPaper(t *testing.T) {
	// Section 4.2: "the total number of unique protocols comes to
	// 10 × 109 × 3 = 3270".
	all := protocols(t)
	strangers := map[[2]int]bool{}
	selections := map[[3]int]bool{}
	allocations := map[design.AllocationKind]bool{}
	for _, p := range all {
		strangers[[2]int{int(p.Stranger), p.H}] = true
		selections[[3]int{int(p.Candidate), int(p.Ranking), p.K}] = true
		allocations[p.Allocation] = true
	}
	if len(strangers) != 10 || len(selections) != 109 || len(allocations) != 3 || len(all) != 3270 {
		t.Errorf("%d stranger × %d selection × %d allocation policies, %d protocols; want 10 × 109 × 3 = 3270",
			len(strangers), len(selections), len(allocations), len(all))
	}
}

func TestEnumerateAllValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for i, p := range protocols(t) {
		if err := p.Validate(); err != nil {
			t.Fatalf("protocol %d invalid: %v", i, err)
		}
		s := p.String()
		if seen[s] {
			t.Fatalf("duplicate protocol %s at %d", s, i)
		}
		seen[s] = true
	}
}

func TestIDRoundTrip(t *testing.T) {
	d := pra.Domain()
	for id := 0; id < d.Space().Size(); id++ {
		pt, err := d.PointByID(id)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pra.FromPoint(pt)
		if err != nil {
			t.Fatalf("ID %d: %v", id, err)
		}
		if got, err := d.PointID(pra.ToPoint(p)); err != nil || got != id {
			t.Fatalf("ID of protocol %s (ID %d) = %d, %v", p, id, got, err)
		}
	}
}

func TestByIDOutOfRange(t *testing.T) {
	d := pra.Domain()
	if _, err := d.PointByID(-1); err == nil {
		t.Error("negative ID should error")
	}
	if _, err := d.PointByID(d.Space().Size()); err == nil {
		t.Error("ID == space size should error")
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, p := range protocols(t) {
		back, err := design.Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if back != p {
			t.Fatalf("round trip %q → %+v ≠ %+v", p.String(), back, p)
		}
	}
}

func TestNamedProtocolsAreInSpace(t *testing.T) {
	for name, p := range design.Named() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
		if back, err := roundTrip(p); err != nil || back != p {
			t.Errorf("%s does not round-trip through its ID: %+v, %v", name, back, err)
		}
	}
}

func TestIDBijectionProperty(t *testing.T) {
	// Property: every valid protocol, built dimension by dimension, is a
	// point of the space and round-trips through its ID.
	f := func(str, h, cand, rank, k, alloc uint8) bool {
		var p design.Protocol
		p.Stranger = design.StrangerKind(int(str) % 4)
		if p.Stranger != design.StrangerNone {
			p.H = int(h)%design.MaxStrangers + 1
		}
		if p.K = int(k) % (design.MaxPartners + 1); p.K > 0 {
			p.Candidate = design.CandidateKind(int(cand) % 2)
			p.Ranking = design.RankingKind(int(rank) % 6)
		}
		p.Allocation = design.AllocationKind(int(alloc) % 3)
		if p.Validate() != nil {
			return false // generator must always build valid protocols
		}
		back, err := roundTrip(p)
		return err == nil && back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
