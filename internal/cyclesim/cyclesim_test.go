package cyclesim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bandwidth"
	"repro/internal/design"
)

// homogeneous builds n peers all executing p with stratified Piatek
// capacities.
func homogeneous(p design.Protocol, n int) []PeerSpec {
	caps := bandwidth.Piatek().Stratified(n)
	specs := make([]PeerSpec, n)
	for i := range specs {
		specs[i] = PeerSpec{Protocol: p, Capacity: caps[i]}
	}
	return specs
}

// mix interleaves two protocols: peers with index < cut run a, the rest
// run b, with stratified capacities shuffled deterministically across
// both groups by interleaving.
func mix(a, b design.Protocol, n, cut int) []PeerSpec {
	caps := bandwidth.Piatek().Stratified(n)
	specs := make([]PeerSpec, n)
	// Assign group membership round-robin so both groups see the same
	// capacity distribution, then count group A up to cut.
	gi := 0
	for i := range specs {
		proto := b
		if gi < cut && i%2 == 0 || (n-i) <= (cut-gi) {
			proto = a
			gi++
		}
		specs[i] = PeerSpec{Protocol: proto, Capacity: caps[i]}
	}
	return specs
}

// anyProtocol is a quick.Generator over the whole design space: each
// dimension drawn independently, the zero policies in canonical form.
type anyProtocol struct{ design.Protocol }

func (anyProtocol) Generate(r *rand.Rand, _ int) reflect.Value {
	var p design.Protocol
	if s := r.Intn(4); s > 0 {
		p.Stranger, p.H = design.StrangerKind(s), 1+r.Intn(design.MaxStrangers)
	}
	if p.K = r.Intn(design.MaxPartners + 1); p.K > 0 {
		p.Candidate, p.Ranking = design.CandidateKind(r.Intn(2)), design.RankingKind(r.Intn(6))
	}
	p.Allocation = design.AllocationKind(r.Intn(3))
	return reflect.ValueOf(anyProtocol{p})
}

func meanCapacity(specs []PeerSpec) float64 {
	var s float64
	for _, p := range specs {
		s += p.Capacity
	}
	return s / float64(len(specs))
}

func TestRunValidation(t *testing.T) {
	ok := homogeneous(design.BitTorrent(), 4)
	if _, err := Run(ok[:1], Options{Rounds: 10}); err == nil {
		t.Error("single peer should error")
	}
	if _, err := Run(ok, Options{Rounds: 0}); err == nil {
		t.Error("zero rounds should error")
	}
	bad := homogeneous(design.BitTorrent(), 4)
	bad[2].Protocol.H = 9
	if _, err := Run(bad, Options{Rounds: 10}); err == nil {
		t.Error("invalid protocol should error")
	}
	bad2 := homogeneous(design.BitTorrent(), 4)
	bad2[0].Capacity = math.NaN()
	if _, err := Run(bad2, Options{Rounds: 10}); err == nil {
		t.Error("NaN capacity should error")
	}
}

func TestDeterminism(t *testing.T) {
	specs := homogeneous(design.BitTorrent(), 20)
	a, err := Run(specs, Options{Rounds: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(specs, Options{Rounds: 100, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Utility {
		if a.Utility[i] != b.Utility[i] {
			t.Fatalf("peer %d differs: %v vs %v", i, a.Utility[i], b.Utility[i])
		}
	}
	c, err := Run(specs, Options{Rounds: 100, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Utility {
		if a.Utility[i] != c.Utility[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should (generically) differ")
	}
}

func TestBitTorrentHomogeneousThroughput(t *testing.T) {
	specs := homogeneous(design.BitTorrent(), 50)
	res, err := Run(specs, Options{Rounds: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc := meanCapacity(specs)
	util := res.Mean() / mc
	if util < 0.5 {
		t.Errorf("BT utilization = %.3f, want >= 0.5 (mean %v of capacity %v)", util, res.Mean(), mc)
	}
	if util > 1.000001 {
		t.Errorf("utilization = %.3f exceeds capacity: conservation violated", util)
	}
}

func TestSortSIsTopTier(t *testing.T) {
	// Section 4.4: the Sort-S protocol (defect on strangers, sort
	// slowest, one partner) is among the very best performers — peers
	// almost always keep their single slot filled and pay no stranger
	// tax. In this model Sort-S lands in the top tier but When-needed
	// k=1 variants edge it out (see EXPERIMENTS.md, deviation D1).
	n, rounds := 50, 500
	sortS, err := Run(homogeneous(design.SortS(), n), Options{Rounds: rounds, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Run(homogeneous(design.BitTorrent(), n), Options{Rounds: rounds, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	birds, err := Run(homogeneous(design.Birds(), n), Options{Rounds: rounds, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mc := meanCapacity(homogeneous(design.SortS(), n))
	if util := sortS.Mean() / mc; util < 0.95 {
		t.Errorf("Sort-S utilization = %.3f, want >= 0.95", util)
	}
	if sortS.Mean() < birds.Mean() {
		t.Errorf("Sort-S mean %v should beat Birds %v", sortS.Mean(), birds.Mean())
	}
	if sortS.Mean() < bt.Mean()*0.97 {
		t.Errorf("Sort-S mean %v should be within 3%% of BitTorrent %v", sortS.Mean(), bt.Mean())
	}
}

func TestSortSPropShareFailsToBootstrap(t *testing.T) {
	// Section 4.4: "It is imperative ... that the resource allocation
	// method should not be Prop Share ... the entire population that
	// follows this protocol will fail to bootstrap."
	p := design.SortS()
	p.Allocation = design.PropShare
	res, err := Run(homogeneous(p, 30), Options{Rounds: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean() != 0 {
		t.Errorf("Sort-S + PropShare mean = %v, want 0 (no bootstrap)", res.Mean())
	}
}

func TestFreeriderPopulationsScoreZero(t *testing.T) {
	// Full freeriders (no partners, no strangers) move nothing.
	res, err := Run(homogeneous(design.Freerider(), 20), Options{Rounds: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean() != 0 {
		t.Errorf("freerider mean = %v, want 0", res.Mean())
	}
	// No-stranger protocols can never bootstrap either: without any
	// stranger contact, candidate lists stay empty forever.
	p := design.BitTorrent()
	p.Stranger, p.H = design.StrangerNone, 0
	res2, err := Run(homogeneous(p, 20), Options{Rounds: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mean() != 0 {
		t.Errorf("no-stranger mean = %v, want 0", res2.Mean())
	}
}

func TestFreerideOnPartnersStillServesStrangers(t *testing.T) {
	// R3 + Periodic uploads only the stranger slots: low but nonzero
	// throughput — the paper's "freeriders with low performance" that
	// still cooperate with strangers.
	p := design.BitTorrent()
	p.Allocation = design.Freeride
	res, err := Run(homogeneous(p, 30), Options{Rounds: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean() <= 0 {
		t.Error("periodic freerider should move stranger bytes")
	}
	bt, err := Run(homogeneous(design.BitTorrent(), 30), Options{Rounds: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean() >= bt.Mean()/2 {
		t.Errorf("freerider mean %v should be far below BT %v", res.Mean(), bt.Mean())
	}
}

func TestBitTorrentResistsFreeriders(t *testing.T) {
	// A 50/50 encounter of BitTorrent vs full freeriders: the BT camp
	// must strongly outperform the freeriders (Robustness win).
	n := 50
	specs := mix(design.BitTorrent(), design.Freerider(), n, n/2)
	res, err := Run(specs, Options{Rounds: 300, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	btMean := res.GroupMean(func(i int) bool { return specs[i].Protocol == design.BitTorrent() })
	frMean := res.GroupMean(func(i int) bool { return specs[i].Protocol == design.Freerider() })
	if btMean <= frMean {
		t.Errorf("BT camp %v should beat freeriders %v", btMean, frMean)
	}
}

func TestPropShareStarvesFreeridersHarder(t *testing.T) {
	// The robust combination (When-needed + Fastest + PropShare) should
	// leave invading freeriders with less than EqualSplit BitTorrent
	// does — the mechanism behind Figure 6.
	n := 50
	freerider := design.Freerider()

	specsES := mix(design.BitTorrent(), freerider, n, n/2)
	resES, err := Run(specsES, Options{Rounds: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	frES := resES.GroupMean(func(i int) bool { return specsES[i].Protocol == freerider })

	robust := design.MostRobustCandidate()
	specsPS := mix(robust, freerider, n, n/2)
	resPS, err := Run(specsPS, Options{Rounds: 300, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	frPS := resPS.GroupMean(func(i int) bool { return specsPS[i].Protocol == freerider })

	if frPS >= frES {
		t.Errorf("freeriders vs PropShare earn %v, vs EqualSplit %v; PropShare should starve them harder", frPS, frES)
	}
}

func TestChurnReducesButKeepsThroughput(t *testing.T) {
	specs := homogeneous(design.BitTorrent(), 40)
	noChurn, err := Run(specs, Options{Rounds: 300, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	// nil Replacement keeps the capacity composition fixed so the
	// comparison isolates the history-loss effect of churn.
	churned, err := Run(specs, Options{Rounds: 300, Seed: 19, Churn: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if churned.Mean() <= 0 {
		t.Error("churned population should still move data")
	}
	if churned.Mean() >= noChurn.Mean() {
		t.Errorf("churn 0.1 mean %v should be below churn-free %v", churned.Mean(), noChurn.Mean())
	}
}

func TestLowPartnerCountsWinUnderChurnToo(t *testing.T) {
	// Section 4.4: "we ran Performance tests ... under churn rates of
	// 0.01 and 0.1 ... it was still the protocols that employed a low
	// number of partners that performed the best." Compare like for
	// like: the same protocol family differing only in k.
	low := design.BitTorrent() // k=4 → k=1
	low.K = 1
	high := design.BitTorrent()
	high.K = 9
	for _, churn := range []float64{0.01, 0.1} {
		lowRes, err := Run(homogeneous(low, 40), Options{Rounds: 300, Seed: 23, Churn: churn})
		if err != nil {
			t.Fatal(err)
		}
		highRes, err := Run(homogeneous(high, 40), Options{Rounds: 300, Seed: 23, Churn: churn})
		if err != nil {
			t.Fatal(err)
		}
		if lowRes.Mean() <= highRes.Mean() {
			t.Errorf("churn %v: low-k mean %v should beat high-k %v", churn, lowRes.Mean(), highRes.Mean())
		}
	}
}

func TestConservationProperty(t *testing.T) {
	// Property: population mean download never exceeds population mean
	// upload capacity, for arbitrary protocols from the space.
	f := func(a, b anyProtocol, seed int64) bool {
		specs := mix(a.Protocol, b.Protocol, 16, 8)
		res, err := Run(specs, Options{Rounds: 40, Seed: seed})
		if err != nil {
			return false
		}
		return res.Mean() <= meanCapacity(specs)*(1+1e-9)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestUtilityNonNegativeProperty(t *testing.T) {
	f := func(p anyProtocol, seed int64) bool {
		res, err := Run(homogeneous(p.Protocol, 12), Options{Rounds: 30, Seed: seed})
		if err != nil {
			return false
		}
		for _, u := range res.Utility {
			if u < 0 || math.IsNaN(u) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGroupMeanEmptyGroup(t *testing.T) {
	r := Result{Utility: []float64{1, 2}}
	if got := r.GroupMean(func(int) bool { return false }); got != 0 {
		t.Errorf("empty group mean = %v", got)
	}
	var empty Result
	if empty.Mean() != 0 {
		t.Error("empty result mean should be 0")
	}
}

func TestBirdsAssortativeMatching(t *testing.T) {
	// In a homogeneous Birds population, fast peers should end up
	// downloading more than slow peers do in a Slowest-ranked world:
	// check that Birds' per-peer utility correlates positively with
	// capacity (birds of a feather: fast pair with fast).
	specs := homogeneous(design.Birds(), 50)
	res, err := Run(specs, Options{Rounds: 500, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	// Compare top-decile vs bottom-decile mean utility.
	var slow, fast float64
	for i := 0; i < 5; i++ {
		slow += res.Utility[i]
		fast += res.Utility[len(specs)-1-i]
	}
	if fast <= slow {
		t.Errorf("Birds: fast peers (%v) should out-download slow peers (%v)", fast/5, slow/5)
	}
}
