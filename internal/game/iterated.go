package game

import "math/rand"

// Strategy decides moves in an iterated 2×2 game. Implementations may
// keep per-match state; Reset is called before every new match.
//
// This mirrors how the paper treats BitTorrent: "Each peer plays a
// number of games with other peers ... following a Tit-for-Tat (TFT)
// like strategy" (Section 2.1).
type Strategy interface {
	// Name identifies the strategy in tournament tables.
	Name() string
	// Reset clears any per-match state before a new opponent.
	Reset()
	// Move returns the next action given the full history of own and
	// opponent moves (equal-length slices, oldest first) and an RNG
	// for mixed strategies.
	Move(own, opp []Action, rng *rand.Rand) Action
}

// AllC always cooperates.
type AllC struct{}

// Name implements Strategy.
func (AllC) Name() string { return "AllC" }

// Reset implements Strategy.
func (AllC) Reset() {}

// Move implements Strategy.
func (AllC) Move(_, _ []Action, _ *rand.Rand) Action { return Cooperate }

// AllD always defects — the strategy Locher et al. showed exploits
// BitTorrent ("Free riding in BitTorrent is cheap", cited in §2.4).
type AllD struct{}

// Name implements Strategy.
func (AllD) Name() string { return "AllD" }

// Reset implements Strategy.
func (AllD) Reset() {}

// Move implements Strategy.
func (AllD) Move(_, _ []Action, _ *rand.Rand) Action { return Defect }

// TFT is Tit-for-Tat: cooperate first, then mirror the opponent's last
// move.
type TFT struct{}

// Name implements Strategy.
func (TFT) Name() string { return "TFT" }

// Reset implements Strategy.
func (TFT) Reset() {}

// Move implements Strategy.
func (TFT) Move(_, opp []Action, _ *rand.Rand) Action {
	if len(opp) == 0 {
		return Cooperate
	}
	return opp[len(opp)-1]
}

// MatchResult holds the totals of one iterated match.
type MatchResult struct {
	Rounds   int
	RowScore float64
	ColScore float64
	// Moves records the played history (index 0 = row player).
	Moves [2][]Action
}

// PlayMatch plays rounds iterations of g between row and col, resetting
// both strategies first. The RNG drives any mixed strategies; pass a
// deterministic source for reproducibility.
func PlayMatch(g *Bimatrix, row, col Strategy, rounds int, rng *rand.Rand) MatchResult {
	row.Reset()
	col.Reset()
	res := MatchResult{Rounds: rounds}
	rowHist := make([]Action, 0, rounds)
	colHist := make([]Action, 0, rounds)
	for i := 0; i < rounds; i++ {
		ra := row.Move(rowHist, colHist, rng)
		ca := col.Move(colHist, rowHist, rng)
		p := g.At(ra, ca)
		res.RowScore += p.Row
		res.ColScore += p.Col
		rowHist = append(rowHist, ra)
		colHist = append(colHist, ca)
	}
	res.Moves[0] = rowHist
	res.Moves[1] = colHist
	return res
}
