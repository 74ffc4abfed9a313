// Package gossip applies Design Space Analysis to a second domain —
// gossip-based dissemination — following the worked example of
// Section 3.1 and the paper's stated future work of testing DSA "on
// distributed domains other than P2P [file swarming]" (Section 7).
//
// Section 3.1 parameterizes the gossip design space as:
//
//	i)   Selection function for choosing partners for exchanging data
//	ii)  Periodicity of data exchange
//	iii) Filtering function for determining data to exchange
//	iv)  Record maintenance policy in the local database
//
// and sketches actualizations for the selection function (Random, Best,
// Loyal, Similarity). This package actualizes all four dimensions,
// implements a round-based push gossip simulator over them, and exposes
// the space in core.Space form so the PRA machinery applies unchanged:
// utility is the number of fresh rumours a node learns, performance is
// population mean coverage, and robustness tournaments pit protocol
// camps against each other exactly as in the file-swarming domain.
//
// # Performance model
//
// A sweep is thousands of runs of tens of nodes over a hundred-odd
// rounds, so a run scans neither every rumour ever injected nor a whole
// partner row, and once warm allocates only its Result:
//
//   - Rumour bitsets. What a node holds is a bitset beside int32
//     learnedAt stamps (a second bitset remembers what it ever learned
//     from another node). Newest and Rarest walk from.known &^ to.known
//     a word at a time; Rarest starts at its drawn offset, wraps, and
//     stops at a rumour only the sender holds. Expiry pops a per-node
//     queue of what it learned, in learn order, while the front is due.
//   - Partner argmaxes kept current. Best, Loyal and Similarity rank
//     partners by one score row each (decayed service, delivery streak,
//     round of the last delivery) and keep the row's first-index
//     argmax. A push updates it from the one cell it writes; only a drop
//     of the argmax's own score rescans the row: 0.8x+1 can drop and a
//     streak reset does, while a delivery round only rises.
//   - Pooled state. Slabs and generator live in a state recycled through
//     a sync.Pool and reset in O(n² + n·words + rumours); learnedAt is
//     read only under a known bit, so it is never cleared.
//
// dsa-sweep -domain gossip -preset quick takes 0.7 s on two Xeon cores
// (1.25 cpu-s; the seed loop took 3.8 s, 7.2 cpu-s). Every Result is the seed loop's bit for bit: the same draws in
// the same order, the same first-index ties, the same float operations.
// reference_test.go keeps that loop, frozen, as the oracle of
// FuzzRunMatchesReference and the denominator of perf_smoke.sh's ≥ 3×
// floor; TestRunAllocs pins the one allocation.
package gossip

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/gorand"
)

// Selection is the partner-selection actualization of Section 3.1.
type Selection int

// Selection function values, verbatim from Section 3.1.
const (
	// SelRandom chooses exchange partners uniformly at random.
	SelRandom Selection = iota
	// SelBest chooses the partners who delivered the most fresh
	// rumours recently ("who have given the best service").
	SelBest
	// SelLoyal chooses the partners with the longest uninterrupted
	// exchange streak.
	SelLoyal
	// SelSimilarity chooses partners whose activity rate is closest to
	// one's own ("based on similarity").
	SelSimilarity
)

// String names the selection function.
func (s Selection) String() string {
	switch s {
	case SelRandom:
		return "Random"
	case SelBest:
		return "Best"
	case SelLoyal:
		return "Loyal"
	case SelSimilarity:
		return "Similarity"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Filter is the data-filtering actualization.
type Filter int

// Filtering function values.
const (
	// FilterNewest pushes the most recently learned rumours first.
	FilterNewest Filter = iota
	// FilterRarest pushes the rumours seen least often first.
	FilterRarest
	// FilterNone pushes nothing — the gossip analogue of freeriding.
	FilterNone
)

// String names the filter.
func (f Filter) String() string {
	switch f {
	case FilterNewest:
		return "Newest"
	case FilterRarest:
		return "Rarest"
	case FilterNone:
		return "None"
	default:
		return fmt.Sprintf("Filter(%d)", int(f))
	}
}

// Record is the record-maintenance actualization.
type Record int

// Record maintenance values.
const (
	// RecordKeepAll keeps every rumour ever learned.
	RecordKeepAll Record = iota
	// RecordExpire drops rumours after a fixed age, freeing capacity
	// but risking re-infection.
	RecordExpire
)

// String names the record policy.
func (r Record) String() string {
	if r == RecordExpire {
		return "Expire"
	}
	return "KeepAll"
}

// Protocol is one point in the gossip design space.
type Protocol struct {
	Selection Selection
	Period    int // rounds between exchanges: 1, 2 or 4
	Fanout    int // partners per exchange: 1..3
	Filter    Filter
	Record    Record
}

// Validate reports whether p is inside the actualized space.
func (p Protocol) Validate() error {
	if p.Selection < SelRandom || p.Selection > SelSimilarity {
		return fmt.Errorf("gossip: unknown selection %d", int(p.Selection))
	}
	switch p.Period {
	case 1, 2, 4:
	default:
		return fmt.Errorf("gossip: period must be 1, 2 or 4, got %d", p.Period)
	}
	if p.Fanout < 1 || p.Fanout > 3 {
		return fmt.Errorf("gossip: fanout must be in [1,3], got %d", p.Fanout)
	}
	if p.Filter < FilterNewest || p.Filter > FilterNone {
		return fmt.Errorf("gossip: unknown filter %d", int(p.Filter))
	}
	if p.Record != RecordKeepAll && p.Record != RecordExpire {
		return fmt.Errorf("gossip: unknown record policy %d", int(p.Record))
	}
	return nil
}

// String returns a compact code, e.g. "Best/p2/f3/Rarest/KeepAll".
func (p Protocol) String() string {
	return p.Selection.String() + "/p" + strconv.Itoa(p.Period) + "/f" + strconv.Itoa(p.Fanout) + "/" +
		p.Filter.String() + "/" + p.Record.String()
}

// Space returns the gossip design space in core form:
// 4 selections × 3 periods × 3 fanouts × 3 filters × 2 records = 216
// protocols.
func Space() *core.Space {
	dims := []core.Dimension{
		{Name: "selection", Values: []string{"Random", "Best", "Loyal", "Similarity"}},
		{Name: "period", Values: []string{"1", "2", "4"}},
		{Name: "fanout", Values: []string{"1", "2", "3"}},
		{Name: "filter", Values: []string{"Newest", "Rarest", "None"}},
		{Name: "record", Values: []string{"KeepAll", "Expire"}},
	}
	s, err := core.NewSpace("gossip", dims, nil)
	if err != nil {
		panic("gossip: space: " + err.Error())
	}
	return s
}

// periods maps the period dimension index to rounds.
var periods = [3]int{1, 2, 4}

// FromPoint converts a core point of Space() into a Protocol.
func FromPoint(pt core.Point) (Protocol, error) {
	if len(pt) != 5 {
		return Protocol{}, fmt.Errorf("gossip: point needs 5 coords, got %d", len(pt))
	}
	p := Protocol{
		Selection: Selection(pt[0]),
		Period:    periods[pt[1]],
		Fanout:    pt[2] + 1,
		Filter:    Filter(pt[3]),
		Record:    Record(pt[4]),
	}
	return p, p.Validate()
}

// Options configures a simulation run.
type Options struct {
	Nodes      int // population size
	Rounds     int // simulated rounds
	RumourRate int // fresh rumours injected per round (at random nodes)
	ExpireAge  int // age at which RecordExpire drops rumours
	Seed       int64
}

// DefaultOptions returns a balanced configuration: 40 nodes, 200
// rounds, one fresh rumour per round, expiry after 20 rounds.
func DefaultOptions() Options {
	return Options{Nodes: 40, Rounds: 200, RumourRate: 1, ExpireAge: 20, Seed: 1}
}

// Result reports one run.
type Result struct {
	// Utility[i] is the number of distinct rumours node i learned from
	// OTHERS (injected rumours do not count) — the domain's analogue
	// of download throughput.
	Utility []float64
}

// Mean returns population mean utility.
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

// GroupMean averages utility over selected nodes.
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

// maxStamp bounds Options.Rounds and the rumour count: rounds are
// stamped and rumour holders counted in int32.
const maxStamp = math.MaxInt32

// Run simulates a population where node i executes protocols[i].
func Run(protocols []Protocol, opt Options) (Result, error) {
	n := len(protocols)
	if n < 2 {
		return Result{}, fmt.Errorf("gossip: need at least 2 nodes, got %d", n)
	}
	if opt.Nodes != 0 && opt.Nodes != n {
		return Result{}, fmt.Errorf("gossip: opt.Nodes %d != len(protocols) %d", opt.Nodes, n)
	}
	if opt.Rounds < 1 || opt.RumourRate < 0 || opt.ExpireAge < 1 {
		return Result{}, fmt.Errorf("gossip: invalid options %+v", opt)
	}
	if opt.Rounds > maxStamp || opt.RumourRate > maxStamp/opt.Rounds {
		return Result{}, fmt.Errorf("gossip: %d rounds × %d rumours a round exceed %d rounds or rumours", opt.Rounds, opt.RumourRate, maxStamp)
	}
	for i, p := range protocols {
		if err := p.Validate(); err != nil {
			return Result{}, fmt.Errorf("gossip: node %d: %w", i, err)
		}
	}
	s := getState(n, opt.Rounds*opt.RumourRate, opt.Seed)
	res := s.run(protocols, opt)
	states.Put(s)
	return res, nil
}

// states recycles run state: a warm Run allocates only its Result.
var states sync.Pool

// state is one run's world. Node i's part of a slab is its i-th stride:
// words bitset words, nR stamps, n scores.
type state struct {
	n, nR, words int
	protos       []Protocol
	rng          *rand.Rand
	// known is what each node holds now; ever what it has learned from
	// another node at some point (utility counts first learning only,
	// so Expire plus re-infection cannot inflate it).
	known, ever []uint64
	// learnedAt is the round a node learned a rumour, read only under
	// its known bit, so a reset leaves it as it is.
	learnedAt []int32
	// queue row i is what node i holds, in the order it learned it: a
	// ring of nR rumours from head[i], qlen[i] long. A rumour is learned
	// only while unknown, so each held rumour is queued once, and stamps
	// rise along the ring.
	queue      []int32
	head, qlen []int32
	counts     []int32 // nodes holding each rumour
	learned    []int   // rumours each node learned from others
	// score row i is what node i's selection ranks partners by: decayed
	// service (Best), delivery streak (Loyal) or the round of the last
	// delivery (Similarity, whose closest-activity pick is the latest
	// delivery). Random rows stay 0.
	score []float64
	top   []int32 // first-index argmax of score row i over j != i
}

// getState returns a state reset for n nodes, nR rumours and seed, from
// the pool when it has one. The reset is O(n² + n·words + nR).
func getState(n, nR int, seed int64) *state {
	s, _ := states.Get().(*state)
	if s == nil {
		s = &state{rng: rand.New(gorand.New(seed))}
	} else {
		s.rng.Seed(seed)
	}
	s.n, s.nR, s.words = n, nR, (nR+63)/64
	s.known = zeroed(s.known, n*s.words)
	s.ever = zeroed(s.ever, n*s.words)
	s.learnedAt = fit(s.learnedAt, n*nR)
	s.queue = fit(s.queue, n*nR)
	s.head = zeroed(s.head, n)
	s.qlen = zeroed(s.qlen, n)
	s.counts = zeroed(s.counts, nR)
	s.learned = zeroed(s.learned, n)
	s.score = zeroed(s.score, n*n)
	s.top = fit(s.top, n)
	for i := range s.top {
		s.top[i] = 0
		if i == 0 {
			s.top[i] = 1
		}
	}
	return s
}

// fit returns s with length n, reusing its array when it is big enough.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is fit with every element zero.
func zeroed[T any](s []T, n int) []T {
	s = fit(s, n)
	clear(s)
	return s
}

func (s *state) run(protocols []Protocol, opt Options) Result {
	s.protos = protocols
	next := 0 // rumours injected so far
	for round := 0; round < opt.Rounds; round++ {
		// Inject fresh rumours at random nodes.
		for k := 0; k < opt.RumourRate; k++ {
			s.learn(s.rng.Intn(s.n), next, round)
			next++
		}
		for i, p := range protocols {
			if p.Record == RecordExpire {
				s.expire(i, round, opt.ExpireAge)
			}
		}
		// Exchanges (push).
		for i, p := range protocols {
			if round%p.Period != 0 {
				continue
			}
			for f := 0; f < p.Fanout; f++ {
				s.push(i, s.partner(i, p.Selection), p.Filter, round, next)
			}
		}
	}
	s.protos = nil // a pooled state must not pin the caller's slice
	res := Result{Utility: make([]float64, s.n)}
	for i, c := range s.learned {
		res.Utility[i] = float64(c)
	}
	return res
}

// learn marks rumour r known to node i since round and queues it.
func (s *state) learn(i, r, round int) {
	s.known[i*s.words+r>>6] |= 1 << (r & 63)
	s.learnedAt[i*s.nR+r] = int32(round)
	s.counts[r]++
	tail := int(s.head[i] + s.qlen[i])
	if tail >= s.nR {
		tail -= s.nR
	}
	s.queue[i*s.nR+tail] = int32(r)
	s.qlen[i]++
}

// expire drops node i's rumours older than age: the front of its queue,
// up to the first rumour that is not.
func (s *state) expire(i, round, age int) {
	q := s.queue[i*s.nR : (i+1)*s.nR]
	at := s.learnedAt[i*s.nR : (i+1)*s.nR]
	h, n := int(s.head[i]), s.qlen[i]
	for ; n > 0 && round-int(at[q[h]]) > age; n-- {
		r := int(q[h])
		s.known[i*s.words+r>>6] &^= 1 << (r & 63)
		s.counts[r]--
		if h++; h == s.nR {
			h = 0
		}
	}
	s.head[i], s.qlen[i] = int32(h), n
}

// partner applies node i's selection function: the argmax of its score
// row, or a uniform other node when Best or Loyal has no positive score.
func (s *state) partner(i int, sel Selection) int {
	if sel != SelRandom {
		t := int(s.top[i])
		if sel == SelSimilarity || s.score[i*s.n+t] > 0 {
			return t
		}
	}
	j := s.rng.Intn(s.n - 1)
	if j >= i {
		j++
	}
	return j
}

// push sends to node to the one rumour from's filter picks among the
// nRumours injected so far, and updates to's score for from.
func (s *state) push(from, to int, filter Filter, round, nRumours int) {
	if filter == FilterNone {
		return // freerider: exchanges happen but carry nothing
	}
	kf := s.known[from*s.words : (from+1)*s.words]
	kt := s.known[to*s.words : (to+1)*s.words]
	var r int
	if filter == FilterNewest {
		r = s.newest(kf, kt, s.learnedAt[from*s.nR:(from+1)*s.nR])
	} else {
		r = s.rarest(kf, kt, s.rng.Intn(nRumours+1), nRumours)
	}
	sel := s.protos[to].Selection
	if r < 0 {
		if sel == SelLoyal {
			s.rank(to, from, 0) // the streak breaks
		}
		return
	}
	s.learn(to, r, round)
	if e, bit := &s.ever[to*s.words+r>>6], uint64(1)<<(r&63); *e&bit == 0 {
		*e |= bit
		s.learned[to]++
	}
	old := s.score[to*s.n+from]
	switch sel {
	case SelBest:
		s.rank(to, from, float64(0.8*old)+1)
	case SelLoyal:
		s.rank(to, from, old+1)
	case SelSimilarity:
		s.rank(to, from, float64(round))
	}
}

// newest returns the candidate (known to from, not to to) from learned
// last, the lowest index among equals; -1 when there is none.
func (s *state) newest(kf, kt []uint64, at []int32) int {
	best, newest := -1, int32(-1)
	for w := range kf {
		for m := kf[w] &^ kt[w]; m != 0; m &= m - 1 {
			if r := w<<6 + bits.TrailingZeros64(m); at[r] > newest {
				best, newest = r, at[r]
			}
		}
	}
	return best
}

// rarest returns the candidate held by the fewest nodes, the first met
// walking up from off and wrapping at nRumours; -1 when there is none.
// A rumour held by one node, from, cannot be beaten.
func (s *state) rarest(kf, kt []uint64, off, nRumours int) int {
	best, fewest := -1, int32(math.MaxInt32)
	for _, span := range [2][2]int{{off, nRumours}, {0, off}} {
		lo, hi := span[0], span[1]
		for w := lo >> 6; w<<6 < hi; w++ {
			m := kf[w] &^ kt[w]
			if w == lo>>6 {
				m &= ^uint64(0) << (lo & 63)
			}
			if end := hi - w<<6; end < 64 {
				m &= 1<<end - 1
			}
			for ; m != 0; m &= m - 1 {
				r := w<<6 + bits.TrailingZeros64(m)
				if c := s.counts[r]; c < fewest {
					best, fewest = r, c
					if c == 1 {
						return best
					}
				}
			}
		}
	}
	return best
}

// rank sets node i's score for j to v and keeps top[i] the row's
// first-index argmax: only a drop of the argmax's own score rescans.
func (s *state) rank(i, j int, v float64) {
	row := s.score[i*s.n : (i+1)*s.n]
	old := row[j]
	row[j] = v
	switch t := int(s.top[i]); {
	case j == t:
		if v < old {
			s.top[i] = int32(argmax(row, i))
		}
	case v > row[t] || v == row[t] && j < t:
		s.top[i] = int32(j)
	}
}

// argmax returns the first index of row's largest value, skipping self.
func argmax(row []float64, self int) int {
	best := 0
	if self == 0 {
		best = 1
	}
	for j := best + 1; j < len(row); j++ {
		if j != self && row[j] > row[best] {
			best = j
		}
	}
	return best
}
