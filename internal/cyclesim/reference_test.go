// Package refsim is the frozen pre-optimization reference
// implementation of the cycle simulator (internal/cyclesim as of PR 4).
// It exists for two reasons:
//
//  1. Parity: the PR 5 hot-path rewrite of cyclesim promises
//     byte-identical results (same RNG draw order, same float operation
//     order). The parity suite runs both implementations over a matrix
//     of protocols, rankings, stranger policies and churn rates and
//     compares Result bit patterns. The committed golden fixtures are
//     generated from this package.
//  2. Perf baseline: scripts/perf_smoke.sh benchmarks a cold tournament
//     sweep against this implementation and enforces the >= 2x
//     optimized-vs-reference floor in CI, so the speedup claim is
//     re-measured on every push instead of decaying into a stale
//     number.
//
// DO NOT "fix" or optimise this package. It is intentionally the seed
// code, allocation patterns and all; the only edits since the freeze
// are the package clause and the import of the public cyclesim types
// (PeerSpec, Options, Result), which carry no behaviour.
package cyclesim_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/cyclesim"
	"repro/internal/design"
)

// aspirationEMA mirrors cyclesim's constant at the freeze point.
const aspirationEMA = 0.2

// stickRounds mirrors cyclesim's constant at the freeze point.
const stickRounds = 2

// noContact marks a pair that has never interacted.
const noContact = int32(-1 << 30)

// world carries all mutable state of one run. Buffers are flat n×n
// row-major slices indexed [receiver*n + giver]; they are allocated
// once so the round loop is allocation-free.
type world struct {
	n     int
	rng   *rand.Rand
	specs []cyclesim.PeerSpec
	caps  []float64

	recv1, recv2       []float64
	contact1, contact2 []bool
	streak             []int32
	asp                []float64
	total              []float64
	spent              []float64

	give        []float64
	zeroContact []bool

	partnerPrev, partnerCur []bool
	lastContact             []int32
	round                   int32

	cand []int
	keys []float64
}

// Run is the frozen reference cyclesim.Run. It validates exactly as
// the seed did (note: churn is NOT validated here — that check is a
// PR 5 addition to the optimized implementation).
func Run(peers []cyclesim.PeerSpec, opt cyclesim.Options) (cyclesim.Result, error) {
	n := len(peers)
	if n < 2 {
		return cyclesim.Result{}, fmt.Errorf("refsim: need at least 2 peers, got %d", n)
	}
	if opt.Rounds < 1 {
		return cyclesim.Result{}, fmt.Errorf("refsim: rounds must be >= 1, got %d", opt.Rounds)
	}
	for i, p := range peers {
		if err := p.Protocol.Validate(); err != nil {
			return cyclesim.Result{}, fmt.Errorf("refsim: peer %d: %w", i, err)
		}
		if p.Capacity < 0 || math.IsNaN(p.Capacity) || math.IsInf(p.Capacity, 0) {
			return cyclesim.Result{}, fmt.Errorf("refsim: peer %d has invalid capacity %v", i, p.Capacity)
		}
	}
	w := newWorld(peers, opt.Seed)
	for r := 0; r < opt.Rounds; r++ {
		w.round = int32(r)
		w.step()
		if opt.Churn > 0 {
			w.churn(opt.Churn, opt.Replacement)
		}
	}
	res := cyclesim.Result{
		Utility: make([]float64, n),
		Spent:   make([]float64, n),
		Rounds:  opt.Rounds,
	}
	for i := range res.Utility {
		res.Utility[i] = w.total[i] / float64(opt.Rounds)
		res.Spent[i] = w.spent[i] / float64(opt.Rounds)
	}
	return res, nil
}

func newWorld(peers []cyclesim.PeerSpec, seed int64) *world {
	n := len(peers)
	w := &world{
		n:           n,
		rng:         rand.New(rand.NewSource(seed)),
		specs:       peers,
		caps:        make([]float64, n),
		recv1:       make([]float64, n*n),
		recv2:       make([]float64, n*n),
		contact1:    make([]bool, n*n),
		contact2:    make([]bool, n*n),
		streak:      make([]int32, n*n),
		asp:         make([]float64, n),
		total:       make([]float64, n),
		spent:       make([]float64, n),
		give:        make([]float64, n*n),
		zeroContact: make([]bool, n*n),
		partnerPrev: make([]bool, n*n),
		partnerCur:  make([]bool, n*n),
		lastContact: make([]int32, n*n),
		cand:        make([]int, 0, n),
		keys:        make([]float64, n),
	}
	for i, p := range peers {
		w.caps[i] = p.Capacity
		w.asp[i] = p.Capacity
	}
	for i := range w.lastContact {
		w.lastContact[i] = noContact
	}
	return w
}

func slots(p design.Protocol) int {
	s := p.K
	if p.Stranger == design.Periodic {
		s += p.H
	}
	return s
}

func (w *world) step() {
	n := w.n
	for i := range w.give {
		w.give[i] = 0
		w.zeroContact[i] = false
		w.partnerCur[i] = false
	}
	for i := 0; i < n; i++ {
		w.plan(i)
	}
	w.commit()
}

func (w *world) plan(i int) {
	p := w.specs[i].Protocol
	ns := slots(p)
	if ns == 0 {
		if p.Stranger == design.DefectStrangers {
			w.contactStrangers(i, p.H, 0)
		}
		return
	}
	slotBW := w.caps[i] / float64(ns)

	selected := w.selectPartners(i, p)
	for _, j := range selected {
		w.partnerCur[i*w.n+j] = true
	}

	switch p.Allocation {
	case design.EqualSplit:
		for _, j := range selected {
			w.give[i*w.n+j] = slotBW
		}
	case design.PropShare:
		var sum float64
		for _, j := range selected {
			sum += w.windowRecv(i, j, p.Candidate.Window())
		}
		if sum > 0 {
			pool := slotBW * float64(len(selected))
			for _, j := range selected {
				wgt := w.windowRecv(i, j, p.Candidate.Window())
				w.give[i*w.n+j] = pool * wgt / sum
			}
		}
	case design.Freeride:
	}

	switch p.Stranger {
	case design.StrangerNone:
	case design.Periodic:
		w.contactStrangers(i, p.H, slotBW)
	case design.WhenNeeded:
		if vacant := p.K - len(selected); vacant > 0 {
			hn := p.H
			if hn > vacant {
				hn = vacant
			}
			w.contactStrangers(i, hn, slotBW)
		}
	case design.DefectStrangers:
		w.contactStrangers(i, p.H, 0)
	}
}

func (w *world) contactStrangers(i, h int, amount float64) {
	n := w.n
	for s := 0; s < h; s++ {
		var j int
		ok := false
		for try := 0; try < n; try++ {
			j = w.rng.Intn(n)
			if j == i {
				continue
			}
			if w.give[i*n+j] > 0 || w.zeroContact[i*n+j] {
				continue
			}
			ok = true
			break
		}
		if !ok {
			return
		}
		if amount > 0 {
			w.give[i*n+j] = amount
		} else {
			w.zeroContact[i*n+j] = true
		}
	}
}

func (w *world) selectPartners(i int, p design.Protocol) []int {
	if p.K == 0 {
		return nil
	}
	n := w.n
	w.cand = w.cand[:0]
	win := p.Candidate.Window()
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		if w.contacted(i, j, win) ||
			(w.partnerPrev[i*n+j] && w.round-w.lastContact[i*n+j] <= int32(win+stickRounds)) {
			w.cand = append(w.cand, j)
		}
	}
	if len(w.cand) == 0 {
		return nil
	}

	switch p.Ranking {
	case design.Fastest:
		for _, j := range w.cand {
			w.keys[j] = -w.windowRate(i, j, win)
		}
	case design.Slowest:
		for _, j := range w.cand {
			w.keys[j] = w.windowRate(i, j, win)
		}
	case design.Proximity:
		own := w.caps[i] / float64(slots(p))
		for _, j := range w.cand {
			w.keys[j] = math.Abs(w.windowRate(i, j, win) - own)
		}
	case design.Adaptive:
		for _, j := range w.cand {
			w.keys[j] = math.Abs(w.windowRate(i, j, win) - w.asp[i])
		}
	case design.Loyal:
		for _, j := range w.cand {
			w.keys[j] = -float64(w.streak[i*n+j])
		}
	case design.RandomRank:
		w.rng.Shuffle(len(w.cand), func(a, b int) {
			w.cand[a], w.cand[b] = w.cand[b], w.cand[a]
		})
	}
	if p.Ranking != design.RandomRank {
		cand := w.cand
		keys := w.keys
		lc := w.lastContact
		sort.SliceStable(cand, func(a, b int) bool {
			ka, kb := keys[cand[a]], keys[cand[b]]
			if ka != kb {
				return ka < kb
			}
			la, lb := lc[i*n+cand[a]], lc[i*n+cand[b]]
			if la != lb {
				return la > lb
			}
			return cand[a] < cand[b]
		})
	}
	if len(w.cand) > p.K {
		w.cand = w.cand[:p.K]
	}
	return w.cand
}

func (w *world) contacted(i, j int, win int) bool {
	idx := i*w.n + j
	if w.recv1[idx] > 0 || w.contact1[idx] {
		return true
	}
	if win >= 2 && (w.recv2[idx] > 0 || w.contact2[idx]) {
		return true
	}
	return false
}

func (w *world) windowRecv(i, j, win int) float64 {
	idx := i*w.n + j
	s := w.recv1[idx]
	if win >= 2 {
		s += w.recv2[idx]
	}
	return s
}

func (w *world) windowRate(i, j, win int) float64 {
	return w.windowRecv(i, j, win) / float64(win)
}

func (w *world) commit() {
	n := w.n
	w.recv1, w.recv2 = w.recv2, w.recv1
	w.contact1, w.contact2 = w.contact2, w.contact1
	w.partnerPrev, w.partnerCur = w.partnerCur, w.partnerPrev
	for i := 0; i < n; i++ {
		var got, givers float64
		for j := 0; j < n; j++ {
			idx := i*n + j
			amt := w.give[j*n+i]
			w.recv1[idx] = amt
			w.contact1[idx] = amt > 0 || w.zeroContact[j*n+i]
			if w.contact1[idx] {
				w.lastContact[idx] = w.round
			}
			if amt > 0 {
				w.streak[idx]++
				got += amt
				givers++
			} else {
				w.streak[idx] = 0
			}
			w.spent[j] += amt
		}
		w.total[i] += got
		if givers > 0 {
			w.asp[i] = (1-aspirationEMA)*w.asp[i] + aspirationEMA*(got/givers)
		}
	}
}

func (w *world) churn(rate float64, dist *bandwidth.Distribution) {
	n := w.n
	for i := 0; i < n; i++ {
		if w.rng.Float64() >= rate {
			continue
		}
		if dist != nil {
			w.caps[i] = dist.Sample(w.rng)
		}
		w.asp[i] = w.caps[i]
		for j := 0; j < n; j++ {
			w.recv1[i*n+j], w.recv2[i*n+j] = 0, 0
			w.recv1[j*n+i], w.recv2[j*n+i] = 0, 0
			w.contact1[i*n+j], w.contact2[i*n+j] = false, false
			w.contact1[j*n+i], w.contact2[j*n+i] = false, false
			w.streak[i*n+j], w.streak[j*n+i] = 0, 0
			w.partnerPrev[i*n+j], w.partnerPrev[j*n+i] = false, false
			w.lastContact[i*n+j], w.lastContact[j*n+i] = noContact, noContact
		}
	}
}
