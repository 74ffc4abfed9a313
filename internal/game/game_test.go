package game

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestActionString(t *testing.T) {
	if Cooperate.String() != "C" || Defect.String() != "D" {
		t.Error("action names wrong")
	}
}

func TestPrisonersDilemmaValidation(t *testing.T) {
	if _, err := PrisonersDilemma(3, 5, 1, 0); err == nil {
		t.Error("t<r should be rejected")
	}
	if _, err := PrisonersDilemma(5, 3, 1, 0); err != nil {
		t.Errorf("valid PD rejected: %v", err)
	}
}

func TestStandardPDNash(t *testing.T) {
	g := StandardPD()
	nash := g.PureNash()
	if len(nash) != 1 || nash[0] != (Outcome{Defect, Defect}) {
		t.Errorf("PD Nash = %v, want only (D,D)", nash)
	}
	if weak, strict := g.DominantRow(Defect); !weak || !strict {
		t.Error("defect should strictly dominate in PD (row)")
	}
	if weak, strict := g.DominantCol(Defect); !weak || !strict {
		t.Error("defect should strictly dominate in PD (col)")
	}
}

func TestBitTorrentDilemmaDominance(t *testing.T) {
	// Section 2.1: "the dominant strategy for fast peers is to always
	// defect on the slow peers ... for the slow peers, the dominant
	// strategy is to always cooperate with the fast peers".
	g, err := BitTorrentDilemma(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if weak, _ := g.DominantRow(Defect); !weak {
		t.Error("fast (row) should weakly dominate with Defect")
	}
	if weak, _ := g.DominantCol(Cooperate); !weak {
		t.Error("slow (col) should weakly dominate with Cooperate")
	}
	// The fast peer's payoff for cooperating with a slow peer is the
	// negative opportunity cost s-f.
	if p := g.At(Cooperate, Cooperate); p.Row != 20-100 {
		t.Errorf("(C,C) fast payoff = %v, want s-f = -80", p.Row)
	}
	// (D,C) is a pure Nash equilibrium: fast defects, slow cooperates —
	// the Dictator-like outcome the paper describes.
	found := false
	for _, o := range g.PureNash() {
		if o == (Outcome{Defect, Cooperate}) {
			found = true
		}
	}
	if !found {
		t.Errorf("Nash = %v, want to include (D,C)", g.PureNash())
	}
}

func TestBirdsDilemmaDominance(t *testing.T) {
	// Section 2.3 / Figure 1(c): "the dominant strategy of both slow
	// and fast peers is to defect against each other".
	g, err := BirdsDilemma(100, 20)
	if err != nil {
		t.Fatal(err)
	}
	if weak, _ := g.DominantRow(Defect); !weak {
		t.Error("fast should weakly dominate with Defect")
	}
	if weak, _ := g.DominantCol(Defect); !weak {
		t.Error("slow should weakly dominate with Defect in Birds")
	}
	// Slow's cooperation payoff is charged the opportunity cost: f-s.
	if p := g.At(Cooperate, Cooperate); p.Col != 100-20 {
		t.Errorf("(C,C) slow payoff = %v, want f-s = 80", p.Col)
	}
	// (D,D) must be a Nash equilibrium.
	found := false
	for _, o := range g.PureNash() {
		if o == (Outcome{Defect, Defect}) {
			found = true
		}
	}
	if !found {
		t.Errorf("Nash = %v, want to include (D,D)", g.PureNash())
	}
}

func TestBirdsFlipsSlowDominance(t *testing.T) {
	// The entire point of Figure 1(a) → 1(c): the slow peer's dominant
	// strategy flips from Cooperate to Defect for every f > s > 0.
	f := func(rawF, rawS float64) bool {
		fSpeed := 1 + mod1e3(rawF)*999 // (1, 1000)
		sSpeed := fSpeed * (0.01 + 0.98*mod1e3(rawS))
		if sSpeed >= fSpeed || sSpeed <= 0 {
			return true
		}
		bt, err := BitTorrentDilemma(fSpeed, sSpeed)
		if err != nil {
			return true
		}
		birds, err := BirdsDilemma(fSpeed, sSpeed)
		if err != nil {
			return true
		}
		btCoop, _ := bt.DominantCol(Cooperate)
		birdsDef, _ := birds.DominantCol(Defect)
		return btCoop && birdsDef
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mod1e3 maps any float64 into [0,1) robustly for quick.Check inputs.
func mod1e3(x float64) float64 {
	if x != x || x > 1e300 || x < -1e300 { // NaN or huge
		return 0.5
	}
	if x < 0 {
		x = -x
	}
	for x >= 1 {
		x /= 10
	}
	return x
}

func TestSpeedValidation(t *testing.T) {
	if _, err := BitTorrentDilemma(10, 10); err == nil {
		t.Error("f == s should be rejected")
	}
	if _, err := BitTorrentDilemma(10, -1); err == nil {
		t.Error("negative s should be rejected")
	}
	if _, err := BirdsDilemma(5, 10); err == nil {
		t.Error("f < s should be rejected")
	}
}

func TestDictator(t *testing.T) {
	g := Dictator(10, 4)
	// Column player's action never changes anything.
	for r := Action(0); r <= Defect; r++ {
		if g.At(r, Cooperate) != g.At(r, Defect) {
			t.Error("dictator recipient should be powerless")
		}
	}
	// Dictator prefers to defect (keep all).
	if weak, strict := g.DominantRow(Defect); !weak || !strict {
		t.Error("keeping everything should strictly dominate")
	}
}

func TestPureNashCoordination(t *testing.T) {
	// Coordination game: two pure equilibria on the diagonal.
	g := &Bimatrix{Cells: [2][2]Payoff{{{2, 2}, {0, 0}}, {{0, 0}, {1, 1}}}}
	nash := g.PureNash()
	if len(nash) != 2 {
		t.Fatalf("nash = %v", nash)
	}
}

func TestNashIsDeviationProofProperty(t *testing.T) {
	// Property: every reported Nash profile really admits no profitable
	// unilateral deviation, for random games.
	f := func(a, b, c, d, e, f2, g2, h float64) bool {
		g := &Bimatrix{Cells: [2][2]Payoff{
			{{mod1e3(a), mod1e3(b)}, {mod1e3(c), mod1e3(d)}},
			{{mod1e3(e), mod1e3(f2)}, {mod1e3(g2), mod1e3(h)}},
		}}
		for _, o := range g.PureNash() {
			if g.Cells[1-o.Row][o.Col].Row > g.Cells[o.Row][o.Col].Row {
				return false
			}
			if g.Cells[o.Row][1-o.Col].Col > g.Cells[o.Row][o.Col].Col {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGameString(t *testing.T) {
	s := StandardPD().String()
	if !strings.Contains(s, "Prisoner") || !strings.Contains(s, "(C,C)") {
		t.Errorf("String output missing content: %q", s)
	}
}

func TestDominantRowNonDominated(t *testing.T) {
	// Anti-coordination: no dominant strategy for either player.
	g := &Bimatrix{Cells: [2][2]Payoff{{{0, 0}, {2, 1}}, {{1, 2}, {0, 0}}}}
	if weak, _ := g.DominantRow(Cooperate); weak {
		t.Error("no dominance expected")
	}
	if weak, _ := g.DominantRow(Defect); weak {
		t.Error("no dominance expected")
	}
}

var _ = rand.New // keep math/rand imported for iterated tests in this package
