// Package game implements the game-theoretic substrate of Section 2:
// two-player 2×2 games (payoff matrices, dominance, pure Nash
// equilibria), the paper's BitTorrent Dilemma (Figure 1a) and its
// Birds modification (Figure 1c), and an iterated-game engine
// (PlayMatch) with the strategies AllC, AllD and TFT.
package game

import "fmt"

// Action is a move in a 2×2 game.
type Action int

// The two actions of every game in this package.
const (
	Cooperate Action = iota
	Defect
)

// String returns "C" or "D".
func (a Action) String() string {
	if a == Cooperate {
		return "C"
	}
	return "D"
}

// Payoff holds the payoffs of the row and column players for one
// outcome cell.
type Payoff struct {
	Row, Col float64
}

// Bimatrix is a general two-player 2×2 game. Cells is indexed
// [rowAction][colAction].
type Bimatrix struct {
	Name  string
	Cells [2][2]Payoff
}

// At returns the payoffs when row plays r and column plays c.
func (g *Bimatrix) At(r, c Action) Payoff { return g.Cells[r][c] }

// String renders the game as a small table.
func (g *Bimatrix) String() string {
	s := g.Name + "\n"
	for r := Action(0); r <= Defect; r++ {
		for c := Action(0); c <= Defect; c++ {
			p := g.At(r, c)
			s += fmt.Sprintf("(%s,%s)=(%g,%g) ", r, c, p.Row, p.Col)
		}
		s += "\n"
	}
	return s
}

// PrisonersDilemma returns the canonical PD with temptation t, reward r,
// punishment p and sucker payoff s (requires t > r > p > s for a true
// PD, which is validated).
func PrisonersDilemma(t, r, p, s float64) (*Bimatrix, error) {
	if !(t > r && r > p && p > s) {
		return nil, fmt.Errorf("game: PD requires t>r>p>s, got t=%g r=%g p=%g s=%g", t, r, p, s)
	}
	return &Bimatrix{
		Name: "Prisoner's Dilemma",
		Cells: [2][2]Payoff{
			{{r, r}, {s, t}},
			{{t, s}, {p, p}},
		},
	}, nil
}

// StandardPD returns the textbook 5/3/1/0 Prisoner's Dilemma.
func StandardPD() *Bimatrix {
	g, err := PrisonersDilemma(5, 3, 1, 0)
	if err != nil {
		panic("game: standard PD invalid: " + err.Error())
	}
	return g
}

// BitTorrentDilemma returns the game of Figure 1(a): the row player is
// a fast peer with upload speed f, the column player a slow peer with
// upload speed s (f > s > 0).
//
// The payoffs encode the paper's opportunity-cost reasoning:
//
//   - (C,C): the fast peer receives s but forgoes f from another fast
//     peer → s−f (negative); the slow peer downloads at f with no
//     opportunity cost charged in this (BitTorrent's) view → f.
//   - (D,C): the fast peer takes s for free → s; the slow peer gets
//     nothing → 0.
//   - (C,D): the fast peer gets nothing for its upload → 0; the slow
//     peer takes f and can still pair with another slow peer at
//     s−f opportunity-adjusted value, f+(s−f) = s (Section 2.1).
//   - (D,D): (0, 0).
//
// Under these payoffs defecting (weakly) dominates for the fast peer
// and cooperating (weakly) dominates for the slow peer, reproducing the
// Dictator-game flavour the paper calls the BitTorrent Dilemma.
func BitTorrentDilemma(f, s float64) (*Bimatrix, error) {
	if err := validateSpeeds(f, s); err != nil {
		return nil, err
	}
	return &Bimatrix{
		Name: "BitTorrent Dilemma",
		Cells: [2][2]Payoff{
			{{s - f, f}, {0, s}},
			{{s, 0}, {0, 0}},
		},
	}, nil
}

// BirdsDilemma returns the modified game of Figure 1(c). The slow
// peer's payoffs now charge the opportunity cost of cooperating with a
// fast peer (a missed sustained relationship with another slow peer):
// cooperation yields f−s instead of f, and defection yields the free f
// with no opportunity cost. Defection becomes the (weakly) dominant
// strategy for both classes, so peers pair within their own class —
// "birds of a feather stick together".
func BirdsDilemma(f, s float64) (*Bimatrix, error) {
	if err := validateSpeeds(f, s); err != nil {
		return nil, err
	}
	return &Bimatrix{
		Name: "Birds Dilemma",
		Cells: [2][2]Payoff{
			{{s - f, f - s}, {0, f}},
			{{s, 0}, {0, 0}},
		},
	}, nil
}

// Dictator returns a degenerate game in which the column player's
// action does not affect either payoff: the row player decides whether
// to give amount g (keeping total t), the column player responds
// passively. It models the paper's observation that slow-vs-fast
// interaction in BitTorrent "resembles an interaction in the Dictator
// game".
func Dictator(t, g float64) *Bimatrix {
	keep := t - g
	return &Bimatrix{
		Name: "Dictator",
		Cells: [2][2]Payoff{
			{{keep, g}, {keep, g}},
			{{t, 0}, {t, 0}},
		},
	}
}

func validateSpeeds(f, s float64) error {
	if !(f > s && s > 0) {
		return fmt.Errorf("game: require f > s > 0, got f=%g s=%g", f, s)
	}
	return nil
}

// DominantRow reports whether action a weakly dominates the other
// action for the row player, and whether the domination is strict.
func (g *Bimatrix) DominantRow(a Action) (weak, strict bool) {
	other := 1 - a
	weak, strict = true, true
	for c := Action(0); c <= Defect; c++ {
		pa := g.Cells[a][c].Row
		pb := g.Cells[other][c].Row
		if pa < pb {
			weak, strict = false, false
			return
		}
		if pa == pb {
			strict = false
		}
	}
	return
}

// DominantCol reports whether action a weakly dominates the other
// action for the column player, and whether the domination is strict.
func (g *Bimatrix) DominantCol(a Action) (weak, strict bool) {
	other := 1 - a
	weak, strict = true, true
	for r := Action(0); r <= Defect; r++ {
		pa := g.Cells[r][a].Col
		pb := g.Cells[r][other].Col
		if pa < pb {
			weak, strict = false, false
			return
		}
		if pa == pb {
			strict = false
		}
	}
	return
}

// Outcome is one action profile.
type Outcome struct {
	Row, Col Action
}

// PureNash returns every pure-strategy Nash equilibrium of the game:
// profiles where neither player can strictly improve by a unilateral
// deviation.
func (g *Bimatrix) PureNash() []Outcome {
	var out []Outcome
	for r := Action(0); r <= Defect; r++ {
		for c := Action(0); c <= Defect; c++ {
			if g.Cells[1-r][c].Row > g.Cells[r][c].Row {
				continue // row deviates
			}
			if g.Cells[r][1-c].Col > g.Cells[r][c].Col {
				continue // col deviates
			}
			out = append(out, Outcome{r, c})
		}
	}
	return out
}
