// Package analytic implements the paper's analytical model of the
// BitTorrent Dilemma (Section 2.2, Table 1) and the Appendix deviation
// analysis showing that BitTorrent's TFT is not a Nash equilibrium in
// that abstraction while the Birds protocol is.
//
// The model counts the expected number of "games" a peer c from a given
// bandwidth class wins per unchoke period, split into games won through
// reciprocation (Er) and "free game wins" granted by other peers'
// optimistic unchokes (E). Classes are relative to c: A above (faster),
// B below (slower), C its own class.
package analytic

import (
	"fmt"
	"math"
)

// Params holds the model parameters of Table 1.
type Params struct {
	NA int // TFT players in classes above c's class
	NB int // TFT players in classes below c's class
	NC int // TFT players in c's class (including c)
	Ur int // regular unchoke slots (simultaneous reciprocation partners)
}

// Validate checks the assumptions the paper's derivation relies on:
// at least one peer in each relative position where used, NA > Ur so
// higher classes never reciprocate down, NC large enough to fill c's
// partner set within its class, and a positive pool Nr.
func (p Params) Validate() error {
	if p.Ur < 1 {
		return fmt.Errorf("analytic: Ur must be >= 1, got %d", p.Ur)
	}
	if p.NA <= p.Ur {
		return fmt.Errorf("analytic: model assumes NA > Ur (got NA=%d, Ur=%d)", p.NA, p.Ur)
	}
	if p.NC < p.Ur+2 {
		return fmt.Errorf("analytic: need NC >= Ur+2 for within-class dynamics (got NC=%d, Ur=%d)", p.NC, p.Ur)
	}
	if p.NB < 0 {
		return fmt.Errorf("analytic: NB must be >= 0, got %d", p.NB)
	}
	if p.Nr() <= 0 {
		return fmt.Errorf("analytic: Nr = %d must be positive", p.Nr())
	}
	return nil
}

// Nr returns the pool of peers in contention for optimistic unchokes,
// NA+NB+NC-Ur-1 (Table 1).
func (p Params) Nr() int { return p.NA + p.NB + p.NC - p.Ur - 1 }

// Wins decomposes the expected games won by peer c per period.
type Wins struct {
	RecipA float64 // Er[A→c]: reciprocation wins from higher classes
	FreeA  float64 // E[A→c]: free wins granted by higher classes
	RecipB float64 // Er[B→c]
	FreeB  float64 // E[B→c]
	RecipC float64 // Er[C→c]
	FreeC  float64 // E[C→c]
}

// Total returns the summed expected wins.
func (w Wins) Total() float64 {
	return w.RecipA + w.FreeA + w.RecipB + w.FreeB + w.RecipC + w.FreeC
}

// freeFromAbove is E[A→c] = NA/Nr: the chance per period that a peer
// from a higher class optimistically unchokes c.
func (p Params) freeFromAbove() float64 {
	return float64(p.NA) / float64(p.Nr())
}

// kBreak is K = 1 - ((1-E[A→c])(1-1/Ur))^Ur: the probability that at
// least one of c's Ur same-class partners is lured away by a free game
// win from a higher class (Section 2.2, equation (1)).
func (p Params) kBreak() float64 {
	ea := p.freeFromAbove()
	return 1 - math.Pow((1-ea)*(1-1/float64(p.Ur)), float64(p.Ur))
}

// kBreakPrime is K' = 1 - ((1-E[A→c])(1-1/Ur))^(Ur-1), the Appendix
// variant over Ur-1 partners.
func (p Params) kBreakPrime() float64 {
	ea := p.freeFromAbove()
	return 1 - math.Pow((1-ea)*(1-1/float64(p.Ur)), float64(p.Ur-1))
}

// BitTorrent returns the expected wins of a BitTorrent (TFT) peer c in
// a homogeneous BitTorrent population, following Section 2.2:
//
//	Er[A→c] = 0                E[A→c] = NA/Nr
//	Er[B→c] = NB/Nr            E[B→c] = NB/Nr
//	Er[C→c] = Ur - E[A→c] - K  (equation 1)
//	E[C→c]  = (NC-1-Er[C→c])/Nr
func BitTorrent(p Params) (Wins, error) {
	if err := p.Validate(); err != nil {
		return Wins{}, err
	}
	nr := float64(p.Nr())
	ea := p.freeFromAbove()
	w := Wins{
		RecipA: 0,
		FreeA:  ea,
		RecipB: float64(p.NB) / nr,
		FreeB:  float64(p.NB) / nr,
	}
	w.RecipC = float64(p.Ur) - ea - p.kBreak()
	w.FreeC = (float64(p.NC-1) - w.RecipC) / nr
	return w, nil
}

// Birds returns the expected wins of a Birds peer c in a homogeneous
// Birds population (Section 2.3):
//
//	ErB[A→c] = ErB[B→c] = 0    (Birds defects across classes)
//	ErB[C→c] = Ur              (stable within-class partnerships)
//	free game wins unchanged vs BitTorrent; EB[C→c] = (NC-1-Ur)/Nr.
func Birds(p Params) (Wins, error) {
	if err := p.Validate(); err != nil {
		return Wins{}, err
	}
	nr := float64(p.Nr())
	w := Wins{
		RecipA: 0,
		FreeA:  p.freeFromAbove(),
		RecipB: 0,
		FreeB:  float64(p.NB) / nr,
		RecipC: float64(p.Ur),
	}
	w.FreeC = (float64(p.NC-1) - float64(p.Ur)) / nr
	return w, nil
}

// Deviation holds the outcome of a unilateral deviation experiment: the
// expected wins of the single deviant peer and of a resident peer of
// the incumbent protocol in the same class.
type Deviation struct {
	Deviant  Wins
	Resident Wins
}

// Gain returns deviant total minus resident total: positive means the
// deviation is profitable and the incumbent protocol is not a Nash
// equilibrium.
func (d Deviation) Gain() float64 { return d.Deviant.Total() - d.Resident.Total() }

// BirdsDeviantInBT analyses one Birds peer entering a swarm of N-1
// BitTorrent peers (Appendix, first part). Cross-class terms: the Birds
// deviant wins the same NB/Nr against lower classes and the same free
// wins from above. Within class C (NC' = NC-1 BT peers plus the
// deviant):
//
//	ErB[C→c]' = Ur - K                          (deviant)
//	Er[C→c]'  = ((NC'-Ur)/NC')(Ur-K-E[A→c])
//	          + (Ur/NC')(Ur-E[A→c]-K')          (resident)
//	EB[C→c]'  = (NC'/NC)(NC-Er[C→c]')/Nr        (deviant free wins)
//	E[C→c]'   = EB[C→c]' + (NC-ErB[C→c]')/(NC·Nr)
func BirdsDeviantInBT(p Params) (Deviation, error) {
	if err := p.Validate(); err != nil {
		return Deviation{}, err
	}
	nr := float64(p.Nr())
	ea := p.freeFromAbove()
	k := p.kBreak()
	kp := p.kBreakPrime()
	ur := float64(p.Ur)
	ncp := float64(p.NC - 1) // NC': BT peers remaining in class C
	nc := float64(p.NC)

	dev := Wins{
		RecipA: 0, FreeA: ea,
		RecipB: float64(p.NB) / nr, FreeB: float64(p.NB) / nr,
		RecipC: ur - k,
	}
	res := Wins{
		RecipA: 0, FreeA: ea,
		RecipB: float64(p.NB) / nr, FreeB: float64(p.NB) / nr,
	}
	res.RecipC = float64(((ncp-ur)/ncp)*(ur-k-ea)) + float64((ur/ncp)*(ur-ea-kp))
	dev.FreeC = (ncp / nc) * (nc - res.RecipC) / nr
	res.FreeC = dev.FreeC + (nc-dev.RecipC)/(nc*nr)
	return Deviation{Deviant: dev, Resident: res}, nil
}

// BTDeviantInBirds analyses one BitTorrent peer entering a swarm of N-1
// Birds peers (Appendix, second part). Within class C (NC' = NC-1 Birds
// peers plus the deviant):
//
//	ErB[C→c]'' = ((NC'-Ur)/NC')·Ur + (Ur/NC')(Ur-E[A→c])
//	           = Ur - (Ur/NC')·E[A→c]           (resident Birds)
//	Er[C→c]''  = Ur - E[A→c]                    (deviant BT)
//	E[C→c]''   = (NC'/NC)·(NC'-ErB[C→c]'')/(N-Ur-1)
//	EB[C→c]''  = E[C→c]'' + (NC'-Er[C→c]'')/(NC'·(N-Ur-1))
func BTDeviantInBirds(p Params) (Deviation, error) {
	if err := p.Validate(); err != nil {
		return Deviation{}, err
	}
	nr := float64(p.Nr()) // Nr = N-Ur-1 with N = NA+NB+NC
	ea := p.freeFromAbove()
	ur := float64(p.Ur)
	ncp := float64(p.NC - 1) // NC': Birds peers in class C
	nc := float64(p.NC)

	res := Wins{ // resident Birds peer
		RecipA: 0, FreeA: ea,
		RecipB: 0, FreeB: float64(p.NB) / nr,
		RecipC: ur - float64((ur/ncp)*ea),
	}
	dev := Wins{ // deviant BT peer
		RecipA: 0, FreeA: ea,
		// The deviant's optimistic unchokes toward lower classes are
		// never reciprocated: Birds residents defect across classes.
		// (In the mirror case the Birds deviant in a BT swarm *does*
		// earn NB/Nr, because BT residents cooperate upward.)
		RecipB: 0, FreeB: float64(p.NB) / nr,
		RecipC: ur - ea,
	}
	dev.FreeC = (ncp / nc) * (ncp - res.RecipC) / nr
	res.FreeC = dev.FreeC + (ncp-dev.RecipC)/(ncp*nr)
	return Deviation{Deviant: dev, Resident: res}, nil
}

// Verdict summarises a Nash-equilibrium check across a parameter grid.
type Verdict struct {
	Checked    int     // parameter combinations evaluated
	Profitable int     // combinations where the deviation gained
	MaxGain    float64 // largest observed gain
	MinGain    float64 // smallest observed gain
}

// IsEquilibrium reports whether no checked deviation was profitable.
func (v Verdict) IsEquilibrium() bool { return v.Checked > 0 && v.Profitable == 0 }

// CheckBTNash evaluates the profitability of a Birds deviation in a BT
// swarm over the given parameter grid. The paper's Appendix argues the
// deviation is always profitable, i.e. BitTorrent is not a Nash
// equilibrium; the returned verdict quantifies that numerically.
func CheckBTNash(grid []Params) (Verdict, error) {
	return check(grid, BirdsDeviantInBT)
}

// CheckBirdsNash evaluates the profitability of a BT deviation in a
// Birds swarm over the given parameter grid. The Appendix argues it is
// never profitable, i.e. Birds is a Nash equilibrium.
func CheckBirdsNash(grid []Params) (Verdict, error) {
	return check(grid, BTDeviantInBirds)
}

func check(grid []Params, f func(Params) (Deviation, error)) (Verdict, error) {
	v := Verdict{MaxGain: math.Inf(-1), MinGain: math.Inf(1)}
	for _, p := range grid {
		d, err := f(p)
		if err != nil {
			return Verdict{}, err
		}
		g := d.Gain()
		v.Checked++
		if g > 0 {
			v.Profitable++
		}
		if g > v.MaxGain {
			v.MaxGain = g
		}
		if g < v.MinGain {
			v.MinGain = g
		}
	}
	return v, nil
}

// DefaultGrid returns a broad parameter grid of valid model
// configurations for equilibrium checks: class sizes 5..60 and unchoke
// slots 1..4 (BitTorrent's default is 4 regular unchokes).
func DefaultGrid() []Params {
	var grid []Params
	for _, ur := range []int{1, 2, 3, 4} {
		for _, na := range []int{5, 10, 20, 40, 60} {
			for _, nb := range []int{0, 5, 10, 20, 40} {
				for _, nc := range []int{5, 10, 20, 40, 60} {
					p := Params{NA: na, NB: nb, NC: nc, Ur: ur}
					if p.Validate() == nil {
						grid = append(grid, p)
					}
				}
			}
		}
	}
	return grid
}
