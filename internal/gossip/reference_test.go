package gossip

// The seed simulator, frozen: run, node, selectPartner, randOther and
// push exactly as they were before gossip.run stopped scanning rumours
// and partner rows. It is the oracle of FuzzRunMatchesReference and the
// denominator of BenchmarkQuickSweepReference; nothing outside the
// tests calls it. Do not optimize it.

import (
	"math"
	"math/rand"

	"repro/internal/gorand"
)

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
