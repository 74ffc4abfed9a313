// Package cyclesim implements the cycle-based simulation model of
// Section 4.3.1: time proceeds in rounds; in each round every peer
// selects partners from its candidate list (built from recent
// interactions), divides its upload capacity among them according to
// its resource-allocation policy, and deals with strangers according to
// its stranger policy. Every peer maintains a short history of others'
// actions. Peer utility is download throughput.
//
// # Modeling decisions
//
// The paper leaves several micro-decisions open; the ones made here are
// chosen to reproduce its reported dynamics and are ablated in the
// benchmark suite:
//
//   - Slot provisioning. A peer provisions one upload pipe per partner
//     slot (k) plus one per reserved stranger slot (h, for the Periodic
//     policy), each carrying capacity/(k+h). Capacity in unfilled slots
//     is wasted that round. This is what makes "peers rarely find
//     themselves without a fully occupied partner set" (Section 4.4)
//     matter: protocols that keep partner sets full perform better, and
//     low-k protocols fill trivially.
//   - Zero-byte contacts. A stranger contact always creates an
//     observation on the receiving side, even when the Defect policy
//     sends 0 bytes. The contacted peer therefore sees the contactor as
//     a candidate with observed rate 0 — which under Sort Slowest ranks
//     first. This reproduces the paper's Sort-S dynamics exactly.
//   - Prop Share distributes only the provisioned pipes of *selected*
//     partners (slotBW × selected), proportionally to bytes received in
//     the candidate window; if nothing was received from any selected
//     partner it gives nothing, reproducing the bootstrap failure the
//     paper describes for Sort-S + Prop Share.
//   - Churn replaces a peer with a fresh one (cleared history, new
//     capacity draw) in place, keeping the population size constant.
//
// Everything is deterministic given Options.Seed.
//
// # Performance model
//
// This package is the inner loop of the PRA quantification: a single
// paper-scale sweep runs hundreds of thousands of simulations through
// Run, so its steady state is engineered to be allocation-free and to
// avoid O(n²) work that the seed implementation repeated every round:
//
//   - Worlds are pooled (see worlds). The O(n²) slabs survive across
//     runs; a run reset is O(n) because history validity is tracked
//     with absolute round stamps rather than cleared buffers — the
//     round counter keeps increasing across pooled runs (with a guard
//     gap), so stale stamps from earlier runs can never match.
//   - State is laid out the way a round reads it. Everything a
//     receiver remembers about a giver is one 32-byte cell (a ranking
//     key, its tiebreak, a Prop Share weight and commit's rotation all
//     read several fields of one pair); a round's planned transfers
//     live only in the per-receiver touch lists, amount beside giver,
//     emptied by zeroing n counts (the seed cleared three O(n²) slabs
//     per round) and walked front to back by commit; a ranking
//     comparison reads two adjacent 16-byte scratch records. The world
//     holds two n² slabs (cells, touch lists); everything else is O(n)
//     or bitmasks.
//   - commit visits only the pairs actually touched this round
//     (O(n·(k+h)) rather than O(n²)), in exactly the seed's
//     (receiver-ascending, giver-ascending) order so every float
//     accumulates in the same sequence.
//   - Partner selection keeps the best min(k, c) candidates by bounded
//     insertion (the comparison is a strict total order, so the prefix
//     is identical to the seed's sort.SliceStable result), and does
//     not rank at all when every candidate fits in k and the
//     allocation is not Prop Share — the only reader of selection
//     order. A Freeride peer whose partner set nothing observes (no
//     When-needed vacancy count, no RandomRank draw) skips selection
//     altogether.
//
// The contract for all of this is byte-identity: same RNG draw order,
// same float operation order, bit-equal Results versus the frozen seed
// implementation in reference_test.go. The golden-parity suite
// enforces it; it is what keeps PR 4's content-addressed cache entries
// and the committed CSVs valid across perf work without a
// ScoreVersioned bump.
package cyclesim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/design"
	"repro/internal/gorand"
)

// PeerSpec describes one peer: the protocol it executes and its upload
// capacity in KiB/s.
type PeerSpec struct {
	Protocol design.Protocol
	Capacity float64
}

// Options configures a run.
type Options struct {
	Rounds int     // number of simulation rounds (paper: 500)
	Seed   int64   // RNG seed; equal seeds give identical runs
	Churn  float64 // per-peer per-round replacement probability in [0,1] (paper: 0, 0.01, 0.1)
	// Replacement supplies capacities for churned-in peers. If nil,
	// the replacement inherits the departed peer's capacity.
	Replacement *bandwidth.Distribution
}

// Result holds the outcome of one run.
type Result struct {
	// Utility is each peer's mean download rate in KiB/s per round —
	// the application-specific utility of Section 3.2.
	Utility []float64
	// Spent is each peer's mean upload rate actually sent per round;
	// Capacity-Spent is bandwidth wasted in unfilled or defected slots.
	Spent []float64
	// Rounds echoes the simulated round count.
	Rounds int
}

// Mean returns the population mean utility — the paper's "average
// performance ... defined as throughput of the population".
func (r Result) Mean() float64 {
	if len(r.Utility) == 0 {
		return 0
	}
	var s float64
	for _, u := range r.Utility {
		s += u
	}
	return s / float64(len(r.Utility))
}

// GroupMean returns the mean utility over peers whose index satisfies
// the predicate — used by encounters to compare the two protocol camps.
func (r Result) GroupMean(in func(i int) bool) float64 {
	var s float64
	n := 0
	for i, u := range r.Utility {
		if in(i) {
			s += u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// aspirationEMA is the smoothing factor of the Adaptive ranking's
// aspiration level (Posch-style win-stay-lose-shift aspiration).
const aspirationEMA = 0.2

// stickRounds is how many rounds beyond the candidate window a silent
// current partner remains selectable. See the package comment; ablated
// in the benchmark suite.
const stickRounds = 2

// never is the stamp value meaning "this cell has no valid history".
// It is far enough below any reachable round that window arithmetic
// (round - stamp) cannot overflow int32: rounds are capped at maxRound
// and maxRound + |never| < 2³¹.
const never = int32(-1 << 29)

// maxRound bounds the absolute round counter. A pooled world whose
// counter would pass it is retired and replaced by a fresh one; a
// single run longer than this is rejected up front (the int32 round
// stamps the seed implementation already used would wrap there too —
// now it is an explicit error instead of silent corruption).
const maxRound = 1 << 28

// runGap is the guard gap inserted between the absolute round ranges
// of consecutive runs on a pooled world. It must exceed every
// backward-looking window in the model (candidate window + partner
// stickiness, and the two recv history rounds), so a stamp written by
// the previous run can never satisfy a window or equality check in the
// next one.
const runGap = 16

// cell is everything receiver i remembers about giver j. The history
// is one n×n row-major slab of these, indexed [receiver*n + giver] —
// an array of structs, because every access (a ranking key with its
// tiebreak, a Prop Share weight, commit's window rotation) reads
// several fields of one pair and none scans one field across pairs.
//
// Validity of every field is tracked with absolute round stamps rather
// than by clearing: a value only counts when its stamp matches the
// window being asked about. The round counter is monotonic across
// pooled runs (each run starts runGap past the previous run's last
// round), which is what makes a pooled world's O(n) reset sound —
// every stale stamp is simply too old to match.
type cell struct {
	// recvLast is the bytes received in round recvLastRound (the
	// receiver's most recent nonzero round for this giver); recvPrev /
	// recvPrevRound hold the nonzero round before that. Together they
	// cover the 2-round candidate window without per-round rotation.
	recvLast, recvPrev           float64
	recvLastRound, recvPrevRound int32
	// streak counts consecutive rounds the receiver got >0 from giver,
	// as of the end of round recvLastRound (a nonzero round both
	// rotates the window and extends or restarts the streak, so one
	// stamp serves both); a gap breaks the chain by leaving the stamp
	// behind.
	streak int32
	// lastContact is the absolute round of the giver's most recent
	// contact (data or zero-byte) toward the receiver, or never. The
	// selection tiebreak reads it; candidacy itself runs on the
	// contact bitmasks of the world.
	lastContact int32
}

// transfer is one entry of a receiver's touch list: a giver and the
// amount it planned this round (0 for a zero-byte contact).
type transfer struct {
	amount float64
	giver  int32
}

// candidate is one entry of the selection scratch: everything one
// ranking comparison reads, side by side.
type candidate struct {
	key         float64 // ranking key, lower = better
	lastContact int32
	idx         int32 // the candidate peer
}

// before orders candidates by ranking key, then most recent contactor
// first — the "immediately ... chooses p2" recency of Section 4.4,
// which also spreads selections uniformly instead of piling onto low
// indices — then by index for determinism. The index tiebreak makes
// this a strict total order.
func (x candidate) before(y candidate) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if x.lastContact != y.lastContact {
		return x.lastContact > y.lastContact
	}
	return x.idx < y.idx
}

// world carries all mutable state of one run.
type world struct {
	n     int
	rng   *rand.Rand
	specs []PeerSpec
	caps  []float64

	// asp is the Adaptive ranking's aspiration level per peer.
	asp []float64
	// total accumulates received bytes per peer; spent accumulates sent.
	total []float64
	spent []float64

	// cells is the pair history, [receiver*n + giver].
	cells []cell

	// touched[r*n : r*n+touchCnt[r]] lists the transfers and zero-byte
	// contacts planned toward receiver r this round, in ascending giver
	// order (plan runs givers in index order). It is the round's whole
	// transfer matrix — nothing else records a planned amount — and
	// commit walks exactly these entries.
	touched  []transfer
	touchCnt []int32
	// serving has bit j set iff the giver being planned already touched
	// receiver j this round; plan clears it per giver. Only
	// contactStrangers reads it.
	serving []uint64

	// Contact bitmasks, the candidate-list accelerator: cmCur row i has
	// bit j set iff giver j contacted receiver i this round (written by
	// commit); cm1..cm4 are the previous four rounds' masks (rotated at
	// the top of every step). Because every candidacy condition looks
	// back at most win+stickRounds (≤ 4) rounds, the candidate set of
	// the seed's O(n) row scan is exactly the bits of
	//
	//	(m1|..|m_win) | (partnerPrev & (m1|..|m_{win+stick}))
	//
	// that is: peers that contacted i within the window, plus pairs
	// selected in round r-1 (bit in partnerPrvMask) whose last contact
	// is at most stickRounds older than that. The second term is the
	// bounded partner-stickiness that lets Sort-S peers "rarely find
	// themselves without a fully occupied partner set" (Section 4.4)
	// while still letting persistently silent partners expire, which
	// keeps large partner sets genuinely hard to sustain (Figure 3's
	// low-k advantage). A sticky candidate ranks at its observed rate,
	// 0 if silent.
	//
	// churn clears a departed peer's rows and bits, matching the
	// seed's history wipe. words is the row stride in uint64 words.
	words                          int
	cmCur, cm1, cm2, cm3, cm4      []uint64
	partnerCurMask, partnerPrvMask []uint64

	// round is the absolute index of the round being simulated; base is
	// the absolute index of the current run's round 0.
	round int32
	base  int32

	// cand is the selection scratch.
	cand []candidate
}

// Run simulates peers for opt.Rounds rounds and returns per-peer
// utilities. It panics only on programmer error (invalid protocols are
// reported as an error instead).
func Run(peers []PeerSpec, opt Options) (Result, error) {
	n := len(peers)
	if n < 2 {
		return Result{}, fmt.Errorf("cyclesim: need at least 2 peers, got %d", n)
	}
	if opt.Rounds < 1 {
		return Result{}, fmt.Errorf("cyclesim: rounds must be >= 1, got %d", opt.Rounds)
	}
	if opt.Rounds > maxRound {
		return Result{}, fmt.Errorf("cyclesim: rounds must be <= %d, got %d", maxRound, opt.Rounds)
	}
	if math.IsNaN(opt.Churn) || opt.Churn < 0 || opt.Churn > 1 {
		return Result{}, fmt.Errorf("cyclesim: churn must be in [0,1], got %v", opt.Churn)
	}
	for i, p := range peers {
		if err := p.Protocol.Validate(); err != nil {
			return Result{}, fmt.Errorf("cyclesim: peer %d: %w", i, err)
		}
		if p.Capacity < 0 || math.IsNaN(p.Capacity) || math.IsInf(p.Capacity, 0) {
			return Result{}, fmt.Errorf("cyclesim: peer %d has invalid capacity %v", i, p.Capacity)
		}
	}
	w := getWorld(peers, opt.Seed, opt.Rounds)
	for r := 0; r < opt.Rounds; r++ {
		w.round = w.base + int32(r)
		w.step()
		if opt.Churn > 0 {
			w.churn(opt.Churn, opt.Replacement)
		}
	}
	res := Result{
		Utility: make([]float64, n),
		Spent:   make([]float64, n),
		Rounds:  opt.Rounds,
	}
	for i := range res.Utility {
		res.Utility[i] = w.total[i] / float64(opt.Rounds)
		res.Spent[i] = w.spent[i] / float64(opt.Rounds)
	}
	putWorld(w)
	return res, nil
}

func newWorld(peers []PeerSpec, seed int64) *world {
	n := len(peers)
	words := (n + 63) / 64
	w := &world{
		n:              n,
		words:          words,
		rng:            rand.New(gorand.New(seed)),
		specs:          peers,
		caps:           make([]float64, n),
		asp:            make([]float64, n),
		total:          make([]float64, n),
		spent:          make([]float64, n),
		cells:          make([]cell, n*n),
		touched:        make([]transfer, n*n),
		touchCnt:       make([]int32, n),
		serving:        make([]uint64, words),
		cmCur:          make([]uint64, n*words),
		cm1:            make([]uint64, n*words),
		cm2:            make([]uint64, n*words),
		cm3:            make([]uint64, n*words),
		cm4:            make([]uint64, n*words),
		partnerCurMask: make([]uint64, n*words),
		partnerPrvMask: make([]uint64, n*words),
		cand:           make([]candidate, 0, n),
	}
	for i, p := range peers {
		w.caps[i] = p.Capacity
		w.asp[i] = p.Capacity
	}
	for i := range w.cells {
		w.cells[i].forget()
	}
	return w
}

// forget invalidates a cell's history by pushing every stamp to never.
func (c *cell) forget() {
	c.recvLastRound, c.recvPrevRound, c.lastContact = never, never, never
}

// reset prepares a pooled world for a fresh run. The O(n²) slabs stay
// as they are — the new run's round range starts runGap past the old
// one, so every stale stamp fails every check — and only the per-peer
// accumulators and the (n²/64-bit) contact masks, which carry no
// stamps, are actually cleared.
func (w *world) reset(peers []PeerSpec, seed int64) {
	w.rng.Seed(seed)
	w.base = w.round + runGap
	w.specs = peers
	for i, p := range peers {
		w.caps[i] = p.Capacity
		w.asp[i] = p.Capacity
		w.total[i] = 0
		w.spent[i] = 0
	}
	for _, m := range [][]uint64{
		w.cmCur, w.cm1, w.cm2, w.cm3, w.cm4,
		w.partnerCurMask, w.partnerPrvMask,
	} {
		for i := range m {
			m[i] = 0
		}
	}
}

// slots returns the number of provisioned upload pipes for peer i's
// protocol: k partner slots plus h reserved stranger slots under the
// Periodic policy (BitTorrent's always-on optimistic unchokes).
func slots(p design.Protocol) int {
	s := p.K
	if p.Stranger == design.Periodic {
		s += p.H
	}
	return s
}

// step executes one simultaneous round.
func (w *world) step() {
	n := w.n
	// Rotate the contact-mask generations (last round's current mask
	// becomes generation 1) and the partner masks; recycle the oldest
	// slab as the new current one. These clears — n²/64 bits each —
	// are the only per-round wipes left from the seed's three O(n²)
	// slab clears.
	w.cmCur, w.cm1, w.cm2, w.cm3, w.cm4 = w.cm4, w.cmCur, w.cm1, w.cm2, w.cm3
	for i := range w.cmCur {
		w.cmCur[i] = 0
	}
	w.partnerCurMask, w.partnerPrvMask = w.partnerPrvMask, w.partnerCurMask
	for i := range w.partnerCurMask {
		w.partnerCurMask[i] = 0
	}
	for i := range w.touchCnt {
		w.touchCnt[i] = 0
	}
	for i := 0; i < n; i++ {
		w.plan(i)
	}
	w.commit()
}

// touch records that giver i planned amount (0 = a zero-byte contact)
// toward receiver j this round. plan runs givers in ascending index
// order and touches each (giver, receiver) pair at most once — the
// serving mask is what keeps a stranger contact off a peer already
// served — so the receiver's list stays giver-sorted, the order commit
// relies on.
func (w *world) touch(i, j int, amount float64) {
	w.serving[j>>6] |= 1 << (uint(j) & 63)
	w.touched[j*w.n+int(w.touchCnt[j])] = transfer{amount: amount, giver: int32(i)}
	w.touchCnt[j]++
}

// plan decides peer i's uploads for this round into the touch lists.
func (w *world) plan(i int) {
	p := w.specs[i].Protocol
	for k := range w.serving {
		w.serving[k] = 0
	}
	ns := slots(p)
	if ns == 0 {
		// k=0 and no reserved stranger slots: nothing is ever sent, but
		// the Defect policy's contacts still happen (h >= 1), they just
		// carry nothing.
		if p.Stranger == design.DefectStrangers {
			w.contactStrangers(i, p.H, 0)
		}
		return
	}
	slotBW := w.caps[i] / float64(ns)

	// A selection nothing observes: a Freeride peer gives its partners
	// nothing, so its partner set feeds only its own next candidate
	// list — unless the vacancy count steers When-needed contacts or a
	// RandomRank shuffle draws from the RNG stream.
	var selected []candidate
	if p.Allocation != design.Freeride || p.Stranger == design.WhenNeeded || p.Ranking == design.RandomRank {
		selected = w.selectPartners(i, p)
	}
	row := i * w.words
	for _, c := range selected {
		w.partnerCurMask[row+int(c.idx)>>6] |= 1 << (uint(c.idx) & 63)
	}

	// Partner allocation. A planned amount of 0 (zero capacity, or a
	// zero Prop Share weight) is equivalent to no plan at all — the
	// seed wrote the 0 into a cleared slab — so only positive amounts
	// are touched.
	switch p.Allocation {
	case design.EqualSplit:
		if slotBW > 0 {
			for _, c := range selected {
				w.touch(i, int(c.idx), slotBW)
			}
		}
	case design.PropShare:
		win := p.Candidate.Window()
		cells := w.cells[i*w.n : (i+1)*w.n]
		var sum float64
		for _, c := range selected {
			sum += w.windowRecv(&cells[c.idx], win)
		}
		if sum > 0 {
			pool := slotBW * float64(len(selected))
			for _, c := range selected {
				if amount := pool * w.windowRecv(&cells[c.idx], win) / sum; amount > 0 {
					w.touch(i, int(c.idx), amount)
				}
			}
		}
	case design.Freeride:
		// Nothing for partners.
	}

	// Stranger policy.
	switch p.Stranger {
	case design.StrangerNone:
		// No stranger interactions at all.
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

// contactStrangers picks up to h distinct peers that i is not already
// serving this round (and are not i) and sends each amount (possibly
// 0, which still registers as a contact).
func (w *world) contactStrangers(i, h int, amount float64) {
	n := w.n
	for s := 0; s < h; s++ {
		// Rejection-sample a target; with small h and n >= 2 this
		// terminates quickly. Bail out after n tries to stay bounded.
		var j int
		ok := false
		for try := 0; try < n; try++ {
			j = w.rng.Intn(n)
			if j != i && w.serving[j>>6]&(1<<(uint(j)&63)) == 0 {
				ok = true
				break
			}
		}
		if !ok {
			return
		}
		w.touch(i, j, amount)
	}
}

// selectPartners builds peer i's candidate list, ranks it with the
// protocol's ranking function and returns the top-k candidates — in
// rank order whenever anything reads the order.
func (w *world) selectPartners(i int, p design.Protocol) []candidate {
	if p.K == 0 {
		return nil
	}
	cand := w.cand[:0]
	win := p.Candidate.Window()
	// Candidates: peers that contacted i within the window, plus
	// sticky partners — pairs selected last round whose most recent
	// contact is within win+stickRounds. Both conditions are exact
	// unions of the per-round contact masks (see the field comment),
	// so the bit scan reproduces the seed's ascending-index row scan.
	mrow := i * w.words
	for wi := 0; wi < w.words; wi++ {
		recent := w.cm1[mrow+wi]
		if win >= 2 {
			recent |= w.cm2[mrow+wi]
		}
		sticky := recent | w.cm2[mrow+wi] | w.cm3[mrow+wi]
		if win >= 2 {
			sticky |= w.cm4[mrow+wi]
		}
		m := recent | (w.partnerPrvMask[mrow+wi] & sticky)
		for m != 0 {
			cand = append(cand, candidate{idx: int32(wi<<6 + bits.TrailingZeros64(m))})
			m &= m - 1
		}
	}
	if len(cand) == 0 {
		return nil
	}
	// An order nothing reads: when every candidate fits in k, all are
	// selected whatever their rank, and only Prop Share reads the order
	// (it sums its weights in selection order) — Equal Split and
	// Freeride touch one receiver list per partner, and the partner
	// mask and the vacancy count are sets. RandomRank always shuffles:
	// its draws are part of the RNG stream.
	if p.Ranking == design.RandomRank {
		w.rng.Shuffle(len(cand), func(a, b int) {
			cand[a], cand[b] = cand[b], cand[a]
		})
	} else if len(cand) > p.K || p.Allocation == design.PropShare {
		w.rank(i, p, cand)
	}
	if len(cand) > p.K {
		cand = cand[:p.K]
	}
	return cand
}

// rank fills in the candidates' ranking keys (lower = better) and moves
// the best min(k, len) of them to the front, in order, by bounded
// insertion. before is a strict total order (final index tiebreak), so
// this prefix is exactly the prefix the seed's sort.SliceStable
// produced — without its per-call closure and reflection allocations,
// and with every comparison inside the contiguous scratch.
func (w *world) rank(i int, p design.Protocol, cand []candidate) {
	cells := w.cells[i*w.n : (i+1)*w.n]
	win := p.Candidate.Window()
	// Proximity and Adaptive rank by distance from a target rate.
	// Birds' distance = |own upload speed - other's upload speed|: a
	// peer observes others per-pipe, so it compares observed rates
	// against its own per-slot bandwidth — in a homogeneous population
	// both sides of the comparison are per-pipe speeds.
	var target float64
	switch p.Ranking {
	case design.Proximity:
		target = w.caps[i] / float64(slots(p))
	case design.Adaptive:
		target = w.asp[i]
	}
	kept := 0
	for _, c := range cand {
		h := &cells[c.idx]
		c.lastContact = h.lastContact
		switch p.Ranking {
		case design.Fastest:
			c.key = -w.windowRate(h, win)
		case design.Slowest:
			c.key = w.windowRate(h, win)
		case design.Proximity, design.Adaptive:
			c.key = math.Abs(w.windowRate(h, win) - target)
		case design.Loyal:
			c.key = -float64(w.streakVal(h))
		}
		// cand[:kept] holds the best min(k, seen) so far, in order; c's
		// own slot is at or past kept, so shifting in place is safe.
		at := kept
		if kept < p.K {
			kept++
		} else if at = kept - 1; !c.before(cand[at]) {
			continue // not among the best k
		}
		for ; at > 0 && c.before(cand[at-1]); at-- {
			cand[at] = cand[at-1]
		}
		cand[at] = c
	}
}

// streakVal returns the live streak of a history cell: the stored
// count only if it was extended through the previous round, else 0 (a
// silent round broke the chain by leaving the stamp behind).
func (w *world) streakVal(c *cell) int32 {
	if c.recvLastRound == w.round-1 {
		return c.streak
	}
	return 0
}

// windowRecv returns the bytes a receiver got from a giver within the
// window, adding the (at most two) stamped history rounds the window
// covers in the seed's last-then-previous order.
func (w *world) windowRecv(c *cell, win int) float64 {
	switch {
	case c.recvLastRound == w.round-1:
		s := c.recvLast
		if win >= 2 && c.recvPrevRound == w.round-2 {
			s += c.recvPrev
		}
		return s
	case win >= 2 && c.recvLastRound == w.round-2:
		return c.recvLast
	}
	return 0
}

// windowRate returns the giver's observed upload rate over the window.
func (w *world) windowRate(c *cell, win int) float64 {
	return w.windowRecv(c, win) / float64(win)
}

// commit applies the planned transfers: updates received/streak
// history, totals and aspiration levels. It walks only the touch
// lists, receiver-major with givers ascending — the same order the
// seed's full n×n scan accumulated nonzero amounts in, so every float
// operation sequence is identical (skipped cells only ever contributed
// exact +0 terms).
func (w *world) commit() {
	n := w.n
	for i := 0; i < n; i++ {
		cnt := int(w.touchCnt[i])
		if cnt == 0 {
			// No contacts: got stays 0 (total += 0 is exact identity)
			// and the aspiration level is untouched, as in the seed.
			continue
		}
		var got, givers float64
		cells := w.cells[i*n : (i+1)*n]
		mask := w.cmCur[i*w.words : (i+1)*w.words]
		for _, t := range w.touched[i*n : i*n+cnt] {
			c := &cells[t.giver]
			c.lastContact = w.round
			mask[t.giver>>6] |= 1 << (uint(t.giver) & 63)
			if t.amount > 0 {
				if c.recvLastRound == w.round-1 {
					c.streak++
				} else {
					c.streak = 1
				}
				// Rotate this cell's two-round receive window.
				c.recvPrev, c.recvPrevRound = c.recvLast, c.recvLastRound
				c.recvLast, c.recvLastRound = t.amount, w.round
				got += t.amount
				givers++
				w.spent[t.giver] += t.amount
			}
		}
		w.total[i] += got
		if givers > 0 {
			w.asp[i] = float64((1-aspirationEMA)*w.asp[i]) + float64(aspirationEMA*(got/givers))
		}
	}
}

// churn replaces each peer with probability rate: history involving it
// is invalidated (stamps pushed to never) and (if dist is non-nil) its
// capacity is redrawn.
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
			w.cells[i*n+j].forget()
			w.cells[j*n+i].forget()
		}
		// Wipe the fresh peer from the contact and partner masks: its
		// own rows, and its bit in every other peer's rows.
		masks := [...][]uint64{
			w.cmCur, w.cm1, w.cm2, w.cm3, w.cm4,
			w.partnerCurMask, w.partnerPrvMask,
		}
		word, bit := i>>6, uint64(1)<<(uint(i)&63)
		for _, m := range masks {
			row := m[i*w.words : (i+1)*w.words]
			for k := range row {
				row[k] = 0
			}
			for r := 0; r < n; r++ {
				m[r*w.words+word] &^= bit
			}
		}
	}
}
