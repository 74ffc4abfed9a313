package gossip

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func proto() Protocol {
	return Protocol{Selection: SelRandom, Period: 1, Fanout: 2, Filter: FilterNewest, Record: RecordKeepAll}
}

func uniform(p Protocol, n int) []Protocol {
	out := make([]Protocol, n)
	for i := range out {
		out[i] = p
	}
	return out
}

func TestValidate(t *testing.T) {
	if err := proto().Validate(); err != nil {
		t.Fatalf("valid protocol rejected: %v", err)
	}
	bad := []func(*Protocol){
		func(p *Protocol) { p.Selection = Selection(9) },
		func(p *Protocol) { p.Period = 3 },
		func(p *Protocol) { p.Fanout = 0 },
		func(p *Protocol) { p.Fanout = 4 },
		func(p *Protocol) { p.Filter = Filter(9) },
		func(p *Protocol) { p.Record = Record(9) },
	}
	for i, mutate := range bad {
		p := proto()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestSpaceSize(t *testing.T) {
	s := Space()
	if s.Size() != 4*3*3*3*2 {
		t.Errorf("gossip space size = %d, want 216", s.Size())
	}
	// Every point converts to a valid protocol.
	for _, pt := range s.Enumerate() {
		if _, err := FromPoint(pt); err != nil {
			t.Fatalf("point %v: %v", pt, err)
		}
	}
	if _, err := FromPoint(core.Point{0, 0}); err == nil {
		t.Error("wrong arity should error")
	}
}

func TestStringNames(t *testing.T) {
	p := proto()
	if p.String() != "Random/p1/f2/Newest/KeepAll" {
		t.Errorf("String = %q", p.String())
	}
	if SelBest.String() != "Best" || FilterRarest.String() != "Rarest" || RecordExpire.String() != "Expire" {
		t.Error("names wrong")
	}
}

// TestLabelsMatchSprintf holds Protocol.String, which concatenates, to
// the fmt.Sprintf format it replaced, at every point of the space: the
// label is the CSV's point column.
func TestLabelsMatchSprintf(t *testing.T) {
	d := Domain()
	for _, pt := range d.Space().Enumerate() {
		p, err := FromPoint(pt)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s/p%d/f%d/%s/%s", p.Selection, p.Period, p.Fanout, p.Filter, p.Record)
		if got := d.Label(pt); got != want {
			t.Fatalf("Label(%v) = %q, want %q", pt, got, want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(uniform(proto(), 1), DefaultOptions()); err == nil {
		t.Error("single node should error")
	}
	opt := DefaultOptions()
	opt.Nodes = 5
	if _, err := Run(uniform(proto(), 10), opt); err == nil {
		t.Error("node count mismatch should error")
	}
	opt2 := DefaultOptions()
	opt2.Rounds = 0
	opt2.Nodes = 0
	if _, err := Run(uniform(proto(), 10), opt2); err == nil {
		t.Error("zero rounds should error")
	}
	// Rounds and the rumour count are int32 stamps and indices: a shape
	// past them is an error, not a makeslice panic or a wrapped stamp.
	for _, big := range []Options{{Rounds: 1 << 62, RumourRate: 2, ExpireAge: 1}, {Rounds: 1 << 31, ExpireAge: 1}, {Rounds: 1 << 16, RumourRate: 1 << 15, ExpireAge: 1}} {
		if _, err := Run(uniform(proto(), 2), big); err == nil {
			t.Errorf("%+v should error", big)
		}
	}
	bad := uniform(proto(), 10)
	bad[3].Fanout = 99
	opt3 := DefaultOptions()
	opt3.Nodes = 0
	if _, err := Run(bad, opt3); err == nil {
		t.Error("invalid node protocol should error")
	}
}

func TestDeterminism(t *testing.T) {
	opt := DefaultOptions()
	opt.Nodes = 0
	a, err := Run(uniform(proto(), 20), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(uniform(proto(), 20), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Utility {
		if a.Utility[i] != b.Utility[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestGossipSpreads(t *testing.T) {
	opt := DefaultOptions()
	opt.Nodes = 0
	res, err := Run(uniform(proto(), 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	// With ~200 rumours injected and active gossip, nodes should learn
	// a substantial number from others.
	if res.Mean() < 50 {
		t.Errorf("mean rumours learned = %v, want >= 50", res.Mean())
	}
}

func TestFreeridersLearnLessUnderBest(t *testing.T) {
	// A camp of FilterNone freeriders inside a SelBest population
	// should underperform the contributors: Best selection routes
	// exchanges toward nodes that deliver.
	n := 30
	contributor := Protocol{Selection: SelBest, Period: 1, Fanout: 2, Filter: FilterNewest, Record: RecordKeepAll}
	freerider := contributor
	freerider.Filter = FilterNone
	protos := make([]Protocol, n)
	for i := range protos {
		if i%3 == 0 {
			protos[i] = freerider
		} else {
			protos[i] = contributor
		}
	}
	opt := DefaultOptions()
	opt.Nodes = 0
	res, err := Run(protos, opt)
	if err != nil {
		t.Fatal(err)
	}
	fr := res.GroupMean(func(i int) bool { return i%3 == 0 })
	co := res.GroupMean(func(i int) bool { return i%3 != 0 })
	if fr >= co {
		t.Errorf("freeriders %v should learn less than contributors %v", fr, co)
	}
}

func TestHigherFanoutSpreadsFaster(t *testing.T) {
	opt := DefaultOptions()
	opt.Nodes = 0
	low := proto()
	low.Fanout = 1
	high := proto()
	high.Fanout = 3
	lowRes, err := Run(uniform(low, 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	highRes, err := Run(uniform(high, 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	if highRes.Mean() <= lowRes.Mean() {
		t.Errorf("fanout 3 (%v) should spread more than fanout 1 (%v)", highRes.Mean(), lowRes.Mean())
	}
}

func TestSlowerPeriodSpreadsLess(t *testing.T) {
	opt := DefaultOptions()
	opt.Nodes = 0
	fast := proto()
	slow := proto()
	slow.Period = 4
	fastRes, err := Run(uniform(fast, 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := Run(uniform(slow, 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.Mean() >= fastRes.Mean() {
		t.Errorf("period 4 (%v) should spread less than period 1 (%v)", slowRes.Mean(), fastRes.Mean())
	}
}

func TestExpiryReducesCoverage(t *testing.T) {
	opt := DefaultOptions()
	opt.Nodes = 0
	opt.ExpireAge = 5
	keep := proto()
	exp := proto()
	exp.Record = RecordExpire
	keepRes, err := Run(uniform(keep, 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	expRes, err := Run(uniform(exp, 30), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Expiring records cannot beat keeping everything in coverage
	// terms (re-learning counts again, but forwarding capacity is
	// lost); allow equality for safety.
	if expRes.Mean() > keepRes.Mean()*1.5 {
		t.Errorf("expiry coverage %v unexpectedly above keep-all %v", expRes.Mean(), keepRes.Mean())
	}
}

func TestUtilityNonNegativeProperty(t *testing.T) {
	s := Space()
	pts := s.Enumerate()
	f := func(idx uint16, seed int64) bool {
		p, err := FromPoint(pts[int(idx)%len(pts)])
		if err != nil {
			return false
		}
		opt := DefaultOptions()
		opt.Nodes = 0
		opt.Rounds = 50
		opt.Seed = seed
		res, err := Run(uniform(p, 10), opt)
		if err != nil {
			return false
		}
		for _, u := range res.Utility {
			if u < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGroupMeanEmpty(t *testing.T) {
	var r Result
	if r.Mean() != 0 {
		t.Error("empty mean should be 0")
	}
	r2 := Result{Utility: []float64{1}}
	if r2.GroupMean(func(int) bool { return false }) != 0 {
		t.Error("empty group mean should be 0")
	}
}
