// Package design specifies the protocol design space of Section 4: the
// Parameterization (salient dimensions of a generic P2P protocol) and
// the Actualization (concrete values per dimension) of a BitTorrent-like
// file-swarming system.
//
// The actualized space is exactly the paper's:
//
//   - Stranger Policy: B1 Periodic / B2 When-needed / B3 Defect, each
//     with h ∈ [1,3] strangers, plus one policy with zero strangers
//     → 10 stranger policies.
//   - Selection Function: candidate list C1 (TFT, window 1) or C2
//     (TF2T, window 2) × ranking function I1-I6 × k ∈ [1,9] partners,
//     plus one policy with zero partners → 109 selection policies.
//   - Resource Allocation: R1 Equal Split / R2 Prop Share / R3 Freeride
//     → 3 allocation policies.
//
// 10 × 109 × 3 = 3270 unique protocols, each with a compact string form
// such as "B2h2-C1-I5k7-R1". This package types a protocol and its
// canonical form (Validate); the space's enumeration and each protocol's
// stable integer ID (its position in that enumeration) belong to the
// swarming domain, package pra, like every domain's.
package design

import (
	"fmt"
	"strconv"
	"strings"
)

// StrangerKind is the B dimension: how a peer treats unknown peers.
type StrangerKind int

// Stranger policy actualizations (Section 4.2).
const (
	// StrangerNone is the added policy with zero strangers: the peer
	// never contacts unknown peers at all.
	StrangerNone StrangerKind = iota
	// Periodic (B1) gives resources to up to h strangers every round.
	Periodic
	// WhenNeeded (B2) gives resources to strangers only while the set
	// of regular partners is not full (inspired by Izhak-Ratzin [11]).
	WhenNeeded
	// DefectStrangers (B3) contacts strangers but always gives them
	// nothing. The contact still creates an observation of 0 on the
	// receiving side — which is what makes the paper's Sort-S protocol
	// work (Section 4.4).
	DefectStrangers
)

// String returns the paper's label for the policy.
func (s StrangerKind) String() string {
	switch s {
	case StrangerNone:
		return "NoStrangers"
	case Periodic:
		return "Periodic"
	case WhenNeeded:
		return "WhenNeeded"
	case DefectStrangers:
		return "Defect"
	default:
		return fmt.Sprintf("StrangerKind(%d)", int(s))
	}
}

// Code returns the paper's B-code ("B1".."B3", or "B0" for none).
func (s StrangerKind) Code() string {
	switch s {
	case Periodic:
		return "B1"
	case WhenNeeded:
		return "B2"
	case DefectStrangers:
		return "B3"
	default:
		return "B0"
	}
}

// CandidateKind is the first part of the Selection Function: which
// peers are eligible for selection.
type CandidateKind int

// Candidate list actualizations.
const (
	// TFT (C1) admits peers who interacted with us in the last round.
	TFT CandidateKind = iota
	// TF2T (C2) admits peers who interacted with us in either of the
	// last two rounds (Axelrod [1]).
	TF2T
)

// String returns the candidate list name.
func (c CandidateKind) String() string {
	if c == TF2T {
		return "TF2T"
	}
	return "TFT"
}

// Code returns the paper's C-code.
func (c CandidateKind) Code() string {
	if c == TF2T {
		return "C2"
	}
	return "C1"
}

// Window returns the history window in rounds (1 for TFT, 2 for TF2T).
func (c CandidateKind) Window() int {
	if c == TF2T {
		return 2
	}
	return 1
}

// RankingKind is the second part of the Selection Function: how
// candidates are ordered before taking the top k.
type RankingKind int

// Ranking function actualizations I1-I6.
const (
	// Fastest (I1) ranks fastest observed uploaders first — standard
	// BitTorrent.
	Fastest RankingKind = iota
	// Slowest (I2) ranks slowest first.
	Slowest
	// Proximity (I3) ranks by closeness to one's own upload capacity —
	// the Birds rule of Section 2.3.
	Proximity
	// Adaptive (I4) ranks by closeness to an adaptive aspiration level
	// that tracks the peer's own recent download performance (Posch
	// [25], Win-Stay-Lose-Shift flavour).
	Adaptive
	// Loyal (I5) ranks by the length of the uninterrupted cooperation
	// streak (Hruschka & Henrich [10]).
	Loyal
	// RandomRank (I6) applies no ordering: candidates are shuffled
	// (Leong et al. [15]).
	RandomRank
)

// String returns the ranking function name.
func (r RankingKind) String() string {
	switch r {
	case Fastest:
		return "Fastest"
	case Slowest:
		return "Slowest"
	case Proximity:
		return "Proximity"
	case Adaptive:
		return "Adaptive"
	case Loyal:
		return "Loyal"
	case RandomRank:
		return "Random"
	default:
		return fmt.Sprintf("RankingKind(%d)", int(r))
	}
}

// Code returns the paper's I-code.
func (r RankingKind) Code() string { return fmt.Sprintf("I%d", int(r)+1) }

// AllocationKind is the Resource Allocation dimension.
type AllocationKind int

// Resource allocation actualizations R1-R3.
const (
	// EqualSplit (R1) divides upload capacity equally among selected
	// partners (and served strangers).
	EqualSplit AllocationKind = iota
	// PropShare (R2) divides capacity proportionally to what each
	// partner gave in the candidate window (Levin et al. [16]).
	PropShare
	// Freeride (R3) gives partners nothing.
	Freeride
)

// String returns the allocation policy name.
func (a AllocationKind) String() string {
	switch a {
	case EqualSplit:
		return "EqualSplit"
	case PropShare:
		return "PropShare"
	case Freeride:
		return "Freeride"
	default:
		return fmt.Sprintf("AllocationKind(%d)", int(a))
	}
}

// Code returns the paper's R-code.
func (a AllocationKind) Code() string { return fmt.Sprintf("R%d", int(a)+1) }

// Bounds of the numeric dimensions (Section 4.2).
const (
	MaxStrangers = 3 // h ranges over [1,3] (0 only for StrangerNone)
	MaxPartners  = 9 // k ranges over [1,9] (0 only for the no-partner policy)
)

// Protocol is one point in the design space.
type Protocol struct {
	Stranger   StrangerKind
	H          int // strangers contacted per round (0 iff Stranger == StrangerNone)
	Candidate  CandidateKind
	Ranking    RankingKind
	K          int // maximum partners (0 = never select; Candidate/Ranking must be canonical)
	Allocation AllocationKind
}

// Validate reports whether p is a canonical member of the space.
// Canonicality matters for the zero policies: k=0 selection must carry
// (TFT, Fastest) and h=0 must carry StrangerNone, so that each of the
// 3270 protocols has exactly one representation.
func (p Protocol) Validate() error {
	switch {
	case p.Stranger == StrangerNone && p.H != 0:
		return fmt.Errorf("design: StrangerNone requires h=0, got h=%d", p.H)
	case p.Stranger != StrangerNone && (p.H < 1 || p.H > MaxStrangers):
		return fmt.Errorf("design: %v requires h in [1,%d], got %d", p.Stranger, MaxStrangers, p.H)
	}
	if p.K < 0 || p.K > MaxPartners {
		return fmt.Errorf("design: k must be in [0,%d], got %d", MaxPartners, p.K)
	}
	if p.K == 0 && (p.Candidate != TFT || p.Ranking != Fastest) {
		return fmt.Errorf("design: k=0 must use canonical (TFT, Fastest), got (%v, %v)", p.Candidate, p.Ranking)
	}
	if p.Candidate != TFT && p.Candidate != TF2T {
		return fmt.Errorf("design: unknown candidate kind %d", int(p.Candidate))
	}
	if p.Ranking < Fastest || p.Ranking > RandomRank {
		return fmt.Errorf("design: unknown ranking kind %d", int(p.Ranking))
	}
	if p.Allocation < EqualSplit || p.Allocation > Freeride {
		return fmt.Errorf("design: unknown allocation kind %d", int(p.Allocation))
	}
	return nil
}

// String returns the compact code, e.g. "B2h2-C1-I5k7-R1". Zero
// policies render as "B0h0" and "k0".
func (p Protocol) String() string {
	var b strings.Builder
	b.WriteString(p.Stranger.Code())
	b.WriteString("h")
	b.WriteString(strconv.Itoa(p.H))
	b.WriteString("-")
	b.WriteString(p.Candidate.Code())
	b.WriteString("-")
	b.WriteString(p.Ranking.Code())
	b.WriteString("k")
	b.WriteString(strconv.Itoa(p.K))
	b.WriteString("-")
	b.WriteString(p.Allocation.Code())
	return b.String()
}

// Describe returns a human-readable multi-part description.
func (p Protocol) Describe() string {
	return fmt.Sprintf("stranger=%v(h=%d) candidates=%v ranking=%v(k=%d) allocation=%v",
		p.Stranger, p.H, p.Candidate, p.Ranking, p.K, p.Allocation)
}

// Parse inverts String.
func Parse(s string) (Protocol, error) {
	var p Protocol
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return p, fmt.Errorf("design: malformed protocol code %q", s)
	}
	// Stranger part: B<n>h<h>.
	bp := parts[0]
	hIdx := strings.IndexByte(bp, 'h')
	if !strings.HasPrefix(bp, "B") || hIdx < 0 {
		return p, fmt.Errorf("design: malformed stranger code %q", bp)
	}
	bNum, err := strconv.Atoi(bp[1:hIdx])
	if err != nil {
		return p, fmt.Errorf("design: malformed stranger code %q: %v", bp, err)
	}
	switch bNum {
	case 0:
		p.Stranger = StrangerNone
	case 1:
		p.Stranger = Periodic
	case 2:
		p.Stranger = WhenNeeded
	case 3:
		p.Stranger = DefectStrangers
	default:
		return p, fmt.Errorf("design: unknown stranger code B%d", bNum)
	}
	if p.H, err = strconv.Atoi(bp[hIdx+1:]); err != nil {
		return p, fmt.Errorf("design: malformed h in %q: %v", bp, err)
	}
	// Candidate part.
	switch parts[1] {
	case "C1":
		p.Candidate = TFT
	case "C2":
		p.Candidate = TF2T
	default:
		return p, fmt.Errorf("design: unknown candidate code %q", parts[1])
	}
	// Ranking part: I<n>k<k>.
	ip := parts[2]
	kIdx := strings.IndexByte(ip, 'k')
	if !strings.HasPrefix(ip, "I") || kIdx < 0 {
		return p, fmt.Errorf("design: malformed ranking code %q", ip)
	}
	iNum, err := strconv.Atoi(ip[1:kIdx])
	if err != nil || iNum < 1 || iNum > 6 {
		return p, fmt.Errorf("design: unknown ranking code %q", ip)
	}
	p.Ranking = RankingKind(iNum - 1)
	if p.K, err = strconv.Atoi(ip[kIdx+1:]); err != nil {
		return p, fmt.Errorf("design: malformed k in %q: %v", ip, err)
	}
	// Allocation part.
	switch parts[3] {
	case "R1":
		p.Allocation = EqualSplit
	case "R2":
		p.Allocation = PropShare
	case "R3":
		p.Allocation = Freeride
	default:
		return p, fmt.Errorf("design: unknown allocation code %q", parts[3])
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}
