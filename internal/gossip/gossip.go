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
package gossip

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

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
	for i, p := range protocols {
		if err := p.Validate(); err != nil {
			return Result{}, fmt.Errorf("gossip: node %d: %w", i, err)
		}
	}
	return run(protocols, opt), nil
}

type node struct {
	proto Protocol
	// learnedAt[r] = round the rumour was learned (-1 unknown).
	learnedAt []int
	// everLearned[r]: utility counts only first-time learning so that
	// Expire + re-infection cannot inflate coverage.
	everLearned []bool
	utility     float64
	// service[j] = fresh rumours received from j recently (decayed).
	service []float64
	// streak[j] = consecutive exchanges with j that delivered data.
	streak []int
	// lastGave[j] = last round j delivered a fresh rumour.
	lastGave []int
}

func run(protocols []Protocol, opt Options) Result {
	n := len(protocols)
	rng := rand.New(gorand.New(opt.Seed))
	maxRumours := opt.Rounds*opt.RumourRate + 1
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{
			proto:       protocols[i],
			learnedAt:   make([]int, maxRumours),
			everLearned: make([]bool, maxRumours),
			service:     make([]float64, n),
			streak:      make([]int, n),
			lastGave:    make([]int, n),
		}
		for r := range nodes[i].learnedAt {
			nodes[i].learnedAt[r] = -1
		}
	}
	nextRumour := 0
	counts := make([]int, maxRumours) // how many nodes know each rumour

	for round := 0; round < opt.Rounds; round++ {
		// Inject fresh rumours at random nodes.
		for k := 0; k < opt.RumourRate && nextRumour < maxRumours; k++ {
			src := rng.Intn(n)
			nodes[src].learnedAt[nextRumour] = round
			counts[nextRumour]++
			nextRumour++
		}
		// Expiry.
		for _, nd := range nodes {
			if nd.proto.Record != RecordExpire {
				continue
			}
			for r := 0; r < nextRumour; r++ {
				if nd.learnedAt[r] >= 0 && round-nd.learnedAt[r] > opt.ExpireAge {
					nd.learnedAt[r] = -1
					counts[r]--
				}
			}
		}
		// Exchanges (push).
		for i, nd := range nodes {
			if round%nd.proto.Period != 0 {
				continue
			}
			for f := 0; f < nd.proto.Fanout; f++ {
				j := nd.selectPartner(i, n, rng, round)
				if j < 0 {
					continue
				}
				nd.push(nodes[j], j, i, round, nextRumour, counts, rng)
			}
		}
	}
	res := Result{Utility: make([]float64, n)}
	for i, nd := range nodes {
		res.Utility[i] = nd.utility
	}
	return res
}

// selectPartner applies the node's selection function.
func (nd *node) selectPartner(self, n int, rng *rand.Rand, round int) int {
	switch nd.proto.Selection {
	case SelRandom:
		return randOther(self, n, rng)
	case SelBest:
		best, bestV := -1, -1.0
		for j := 0; j < n; j++ {
			if j != self && nd.service[j] > bestV {
				best, bestV = j, nd.service[j]
			}
		}
		if bestV <= 0 {
			return randOther(self, n, rng)
		}
		return best
	case SelLoyal:
		best, bestV := -1, 0
		for j := 0; j < n; j++ {
			if j != self && nd.streak[j] > bestV {
				best, bestV = j, nd.streak[j]
			}
		}
		if best < 0 {
			return randOther(self, n, rng)
		}
		return best
	case SelSimilarity:
		// Closest recent activity: partner whose last delivery is most
		// recent relative to ours — a lightweight profile-similarity
		// proxy that needs no extra state.
		best, bestV := -1, math.MaxFloat64
		for j := 0; j < n; j++ {
			if j == self {
				continue
			}
			d := math.Abs(float64(round - nd.lastGave[j]))
			if d < bestV {
				best, bestV = j, d
			}
		}
		if best < 0 {
			return randOther(self, n, rng)
		}
		return best
	default:
		return -1
	}
}

func randOther(self, n int, rng *rand.Rand) int {
	if n < 2 {
		return -1
	}
	j := rng.Intn(n - 1)
	if j >= self {
		j++
	}
	return j
}

// push sends up to one rumour chosen by the filter from nd to the
// target, updating the receiver's bookkeeping.
func (nd *node) push(to *node, toIdx, selfIdx, round, nRumours int, counts []int, rng *rand.Rand) {
	if nd.proto.Filter == FilterNone {
		return // freerider: exchanges happen but carry nothing
	}
	best := -1
	switch nd.proto.Filter {
	case FilterNewest:
		newest := -1
		for r := 0; r < nRumours; r++ {
			if nd.learnedAt[r] >= 0 && to.learnedAt[r] < 0 && nd.learnedAt[r] > newest {
				best, newest = r, nd.learnedAt[r]
			}
		}
	case FilterRarest:
		rarest := math.MaxInt32
		off := rng.Intn(nRumours + 1)
		for i := 0; i < nRumours; i++ {
			r := (off + i) % nRumours
			if nd.learnedAt[r] >= 0 && to.learnedAt[r] < 0 && counts[r] < rarest {
				best, rarest = r, counts[r]
			}
		}
	}
	if best < 0 {
		to.streak[selfIdx] = 0
		return
	}
	to.learnedAt[best] = round
	counts[best]++
	if !to.everLearned[best] {
		to.everLearned[best] = true
		to.utility++
	}
	to.service[selfIdx] = float64(0.8*to.service[selfIdx]) + 1
	to.streak[selfIdx]++
	to.lastGave[selfIdx] = round
}
