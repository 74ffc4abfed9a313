package pra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/design"
)

// Space expresses the Section 4.2 design space in the generic
// core.Space form: six dimensions with the canonical-zero constraints,
// yielding exactly the paper's 3270 valid points. Each call builds a
// fresh space, which enumerates anew; Domain().Space() is the one the
// domain's IDs index, enumerated once.
func Space() *core.Space {
	dims := []core.Dimension{
		{Name: "stranger", Values: []string{"None", "Periodic", "WhenNeeded", "Defect"}},
		{Name: "h", Values: []string{"0", "1", "2", "3"}},
		{Name: "candidates", Values: []string{"TFT", "TF2T"}},
		{Name: "ranking", Values: []string{"Fastest", "Slowest", "Proximity", "Adaptive", "Loyal", "Random"}},
		{Name: "k", Values: []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"}},
		{Name: "allocation", Values: []string{"EqualSplit", "PropShare", "Freeride"}},
	}
	s, err := core.NewSpace("p2p-file-swarming", dims, func(p core.Point) bool {
		_, err := FromPoint(p)
		return err == nil
	})
	if err != nil {
		panic("pra: file swarming space: " + err.Error())
	}
	return s
}

// FromPoint converts a Space point into the design package's Protocol,
// enforcing the same canonical-form rules.
func FromPoint(p core.Point) (design.Protocol, error) {
	if len(p) != 6 {
		return design.Protocol{}, fmt.Errorf("pra: file-swarming point needs 6 coords, got %d", len(p))
	}
	proto := design.Protocol{
		Stranger:   design.StrangerKind(p[0]),
		H:          p[1],
		Candidate:  design.CandidateKind(p[2]),
		Ranking:    design.RankingKind(p[3]),
		K:          p[4],
		Allocation: design.AllocationKind(p[5]),
	}
	if err := proto.Validate(); err != nil {
		return design.Protocol{}, err
	}
	return proto, nil
}

// ToPoint converts a design.Protocol into a Space point (the inverse of
// FromPoint for valid protocols).
func ToPoint(proto design.Protocol) core.Point {
	return core.Point{
		int(proto.Stranger),
		proto.H,
		int(proto.Candidate),
		int(proto.Ranking),
		proto.K,
		int(proto.Allocation),
	}
}
