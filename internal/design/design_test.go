package design

import (
	"strings"
	"testing"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"B1h1-C1-I1k4",     // missing allocation
		"X1h1-C1-I1k4-R1",  // bad stranger
		"B9h1-C1-I1k4-R1",  // unknown stranger number
		"B1h1-C9-I1k4-R1",  // bad candidate
		"B1h1-C1-I7k4-R1",  // unknown ranking
		"B1h1-C1-I1k4-R9",  // bad allocation
		"B1hX-C1-I1k4-R1",  // non-numeric h
		"B1h1-C1-I1kX-R1",  // non-numeric k
		"B1h9-C1-I1k4-R1",  // h out of range (validate)
		"B0h0-C2-I1k0-R1",  // non-canonical zero selection
		"B1h1-C1-I1k10-R1", // k out of range
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestValidateCanonicalZeroPolicies(t *testing.T) {
	ok := Protocol{Stranger: StrangerNone, H: 0, Candidate: TFT, Ranking: Fastest, K: 0, Allocation: Freeride}
	if err := ok.Validate(); err != nil {
		t.Errorf("canonical zero protocol rejected: %v", err)
	}
	bad := ok
	bad.Ranking = Loyal // non-canonical with k=0
	if err := bad.Validate(); err == nil {
		t.Error("non-canonical k=0 should be rejected")
	}
	bad2 := ok
	bad2.H = 2 // StrangerNone with h>0
	if err := bad2.Validate(); err == nil {
		t.Error("StrangerNone with h>0 should be rejected")
	}
	bad3 := Protocol{Stranger: Periodic, H: 0, Candidate: TFT, Ranking: Fastest, K: 1}
	if err := bad3.Validate(); err == nil {
		t.Error("Periodic with h=0 should be rejected")
	}
}

func TestNamedProtocolProperties(t *testing.T) {
	bt := BitTorrent()
	if bt.Ranking != Fastest || bt.Allocation != EqualSplit || bt.Candidate != TFT {
		t.Errorf("BitTorrent = %+v", bt)
	}
	birds := Birds()
	if birds.Ranking != Proximity {
		t.Error("Birds must rank by proximity")
	}
	if birds.Stranger != bt.Stranger || birds.K != bt.K {
		t.Error("Birds should differ from BitTorrent only in ranking")
	}
	lwn := LoyalWhenNeeded()
	if lwn.Ranking != Loyal || lwn.Stranger != WhenNeeded {
		t.Errorf("LoyalWhenNeeded = %+v", lwn)
	}
	ss := SortS()
	if ss.Ranking != Slowest || ss.K != 1 || ss.Stranger != DefectStrangers {
		t.Errorf("SortS = %+v", ss)
	}
	if ss.Allocation == PropShare {
		t.Error("SortS with PropShare would fail to bootstrap (Section 4.4)")
	}
	mr := MostRobustCandidate()
	if mr.Stranger != WhenNeeded || mr.Ranking != Fastest || mr.Allocation != PropShare || mr.K != 7 {
		t.Errorf("MostRobust = %+v", mr)
	}
	fr := Freerider()
	if fr.K != 0 || fr.Stranger != StrangerNone || fr.Allocation != Freeride {
		t.Errorf("Freerider = %+v", fr)
	}
}

func TestStringFormat(t *testing.T) {
	p := Protocol{Stranger: WhenNeeded, H: 2, Candidate: TFT, Ranking: Loyal, K: 7, Allocation: PropShare}
	if got := p.String(); got != "B2h2-C1-I5k7-R2" {
		t.Errorf("String = %q", got)
	}
	if got := Freerider().String(); got != "B0h0-C1-I1k0-R3" {
		t.Errorf("Freerider String = %q", got)
	}
}

func TestDescribeMentionsAllDimensions(t *testing.T) {
	d := BitTorrent().Describe()
	for _, want := range []string{"Periodic", "TFT", "Fastest", "EqualSplit"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q missing %q", d, want)
		}
	}
}

func TestCodeStrings(t *testing.T) {
	if Periodic.Code() != "B1" || WhenNeeded.Code() != "B2" || DefectStrangers.Code() != "B3" || StrangerNone.Code() != "B0" {
		t.Error("stranger codes wrong")
	}
	if TFT.Code() != "C1" || TF2T.Code() != "C2" {
		t.Error("candidate codes wrong")
	}
	if Fastest.Code() != "I1" || RandomRank.Code() != "I6" {
		t.Error("ranking codes wrong")
	}
	if EqualSplit.Code() != "R1" || Freeride.Code() != "R3" {
		t.Error("allocation codes wrong")
	}
	if TFT.Window() != 1 || TF2T.Window() != 2 {
		t.Error("candidate windows wrong")
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("Table 2 rows = %d, want 6", len(rows))
	}
	systems := map[string]bool{}
	for _, r := range rows {
		if r.System == "" || r.StrangerPolicy == "" || r.SelectionFunction == "" {
			t.Errorf("incomplete row %+v", r)
		}
		systems[r.System] = true
	}
	for _, want := range []string{"Maze [32]", "BarterCast [20]", "GTG [21]"} {
		if !systems[want] {
			t.Errorf("missing system %s", want)
		}
	}
}
