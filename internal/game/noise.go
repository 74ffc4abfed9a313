package game

import "math/rand"

// Noisy wraps a strategy with trembling-hand noise: with probability P
// the intended move is flipped. Axelrod's follow-up work (and Posch's
// WSLS analysis cited by the paper for the Adaptive ranking) showed
// that noise reshuffles the iterated-game rankings — TFT locks into
// vendettas while forgiving strategies recover — which is exactly the
// kind of fragility DSA's Robustness measure probes at the protocol
// level.
type Noisy struct {
	Inner Strategy
	P     float64
}

// Name implements Strategy.
func (n Noisy) Name() string { return n.Inner.Name() + "+noise" }

// Reset implements Strategy.
func (n Noisy) Reset() { n.Inner.Reset() }

// Move implements Strategy.
func (n Noisy) Move(own, opp []Action, rng *rand.Rand) Action {
	a := n.Inner.Move(own, opp, rng)
	if rng.Float64() < n.P {
		return 1 - a
	}
	return a
}
