// Package refswarm is the frozen pre-optimization reference
// implementation of the piece-level swarm simulator (internal/swarm as
// of PR 4). Like internal/cyclesim/refsim it exists for parity (the
// optimized swarm.Run must stay byte-identical to this code — same RNG
// draw order, same float operation order; the golden fixtures are
// generated from it) and as the perf baseline scripts/perf_smoke.sh
// measures against.
//
// DO NOT "fix" or optimise this package. The only edits since the
// freeze are the package clause, the import of the public swarm types
// (Client, Config, Result), local copies of the three unexported helpers
// those types carried (slots, optimistic, pieces), and the removal of
// the per-second trace hook along with swarm.Config's; none carry
// behaviour.
package swarm_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/bandwidth"
	"repro/internal/swarm"
)

type optimisticMode int

const (
	optimisticAlways optimisticMode = iota
	optimisticWhenNeeded
	optimisticNever
)

// slotsOf mirrors swarm.Client.slots at the freeze point.
func slotsOf(c swarm.Client) int {
	if c == swarm.ClientSortS {
		return 1
	}
	return 3
}

// optimisticOf mirrors swarm.Client.optimistic at the freeze point.
func optimisticOf(c swarm.Client) optimisticMode {
	switch c {
	case swarm.ClientSortS:
		return optimisticNever
	case swarm.ClientLoyal:
		return optimisticWhenNeeded
	default:
		return optimisticAlways
	}
}

func validate(c swarm.Config) error {
	switch {
	case c.FileKiB < 1 || c.PieceKiB < 1:
		return fmt.Errorf("refswarm: file and piece sizes must be positive")
	case c.PieceKiB > c.FileKiB:
		return fmt.Errorf("refswarm: piece larger than file")
	case c.SeedUploadKBps <= 0:
		return fmt.Errorf("refswarm: seeder upload must be positive")
	case c.Seeders < 1:
		return fmt.Errorf("refswarm: need at least one seeder")
	case c.SeederSlots < 1:
		return fmt.Errorf("refswarm: need at least one seeder slot")
	case c.ChokeIntervalS < 1 || c.OptimisticEvery < 1:
		return fmt.Errorf("refswarm: intervals must be positive")
	case c.MaxSeconds < 1:
		return fmt.Errorf("refswarm: MaxSeconds must be positive")
	}
	return nil
}

func pieces(c swarm.Config) int {
	return (c.FileKiB + c.PieceKiB - 1) / c.PieceKiB
}

// peer is one participant (leecher or seeder).
type peer struct {
	client   swarm.Client
	seed     bool
	upKBps   float64
	downKBps float64
	have     []bool
	haveCnt  int
	done     bool
	doneAt   int
	unchoked []int
	optIdx   int

	partial       []float64
	assigned      []int
	rate          []float64
	gotThisPeriod []float64
	streak        []int
}

// Run is the frozen reference swarm.Run.
func Run(clients []swarm.Client, cfg swarm.Config) (swarm.Result, error) {
	if err := validate(cfg); err != nil {
		return swarm.Result{}, err
	}
	if len(clients) < 1 {
		return swarm.Result{}, fmt.Errorf("refswarm: need at least one leecher")
	}
	for i, c := range clients {
		if c < 0 || c.String() == fmt.Sprintf("Client(%d)", int(c)) {
			return swarm.Result{}, fmt.Errorf("refswarm: leecher %d has unknown client %d", i, int(c))
		}
	}
	s := newState(clients, cfg)
	for sec := 0; sec < cfg.MaxSeconds; sec++ {
		if sec%cfg.ChokeIntervalS == 0 {
			s.rechoke(sec / cfg.ChokeIntervalS)
		}
		s.transfer(sec)
		if s.remaining == 0 {
			break
		}
	}
	res := swarm.Result{Times: make([]float64, len(clients))}
	res.Goodput = s.goodput
	res.Wasted = s.wasted
	if s.seconds > 0 {
		res.MeanActiveEdges = float64(s.activeEdges) / float64(s.seconds)
	}
	for i := range clients {
		if s.peers[i].done {
			res.Times[i] = float64(s.peers[i].doneAt + 1)
		} else {
			res.Times[i] = math.Inf(1)
			res.Censored++
		}
	}
	return res, nil
}

type state struct {
	cfg       swarm.Config
	rng       *rand.Rand
	peers     []*peer
	nLeech    int
	nPieces   int
	avail     []int
	remaining int
	scratch   []int

	goodput     float64
	wasted      float64
	activeEdges int
	seconds     int
	downBudget  []float64
}

func newState(clients []swarm.Client, cfg swarm.Config) *state {
	nL := len(clients)
	n := nL + cfg.Seeders
	nP := pieces(cfg)
	dist := cfg.Dist
	if dist == nil {
		dist = bandwidth.Piatek()
	}
	caps := dist.Stratified(nL)
	s := &state{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		peers:     make([]*peer, n),
		nLeech:    nL,
		nPieces:   nP,
		avail:     make([]int, nP),
		remaining: nL,
	}
	s.downBudget = make([]float64, nL)
	for i := 0; i < n; i++ {
		p := &peer{
			have:          make([]bool, nP),
			partial:       make([]float64, nP),
			assigned:      make([]int, nP),
			rate:          make([]float64, n),
			gotThisPeriod: make([]float64, n),
			streak:        make([]int, n),
			optIdx:        -1,
		}
		for j := range p.assigned {
			p.assigned[j] = -1
		}
		if i < nL {
			p.client = clients[i]
			p.upKBps = caps[i]
			if cfg.DownCapFactor > 0 {
				p.downKBps = cfg.DownCapFactor * caps[i]
				if p.downKBps < cfg.DownFloorKBps {
					p.downKBps = cfg.DownFloorKBps
				}
			}
		} else {
			p.seed = true
			p.upKBps = cfg.SeedUploadKBps
			for j := range p.have {
				p.have[j] = true
			}
			p.haveCnt = nP
		}
		s.peers[i] = p
	}
	for pc := range s.avail {
		s.avail[pc] = cfg.Seeders
	}
	return s
}

func (s *state) interested(a, b int) bool {
	pa, pb := s.peers[a], s.peers[b]
	if pa.done || pb.done {
		return false
	}
	if pb.seed {
		return !pa.done
	}
	for p := 0; p < s.nPieces; p++ {
		if pb.have[p] && !pa.have[p] {
			return true
		}
	}
	return false
}

func (s *state) rechoke(period int) {
	interval := float64(s.cfg.ChokeIntervalS)
	for _, p := range s.peers {
		if p.done {
			continue
		}
		for j := range p.rate {
			obs := p.gotThisPeriod[j] / interval
			if period == 0 {
				p.rate[j] = obs
			} else {
				p.rate[j] = 0.5*p.rate[j] + 0.5*obs
			}
			if p.gotThisPeriod[j] > 0 {
				p.streak[j]++
			} else {
				p.streak[j] = 0
			}
			p.gotThisPeriod[j] = 0
		}
	}
	for i := range s.peers {
		if s.peers[i].done {
			continue
		}
		if s.peers[i].seed {
			s.rechokeSeeder(i)
		} else {
			s.rechokeLeecher(i, period)
		}
	}
}

func (s *state) rechokeSeeder(i int) {
	p := s.peers[i]
	s.scratch = s.scratch[:0]
	for j := 0; j < s.nLeech; j++ {
		if j != i && s.interested(j, i) {
			s.scratch = append(s.scratch, j)
		}
	}
	s.rng.Shuffle(len(s.scratch), func(a, b int) {
		s.scratch[a], s.scratch[b] = s.scratch[b], s.scratch[a]
	})
	k := s.cfg.SeederSlots
	if k > len(s.scratch) {
		k = len(s.scratch)
	}
	p.unchoked = append(p.unchoked[:0], s.scratch[:k]...)
}

func (s *state) rechokeLeecher(i, period int) {
	p := s.peers[i]
	c := p.client
	s.scratch = s.scratch[:0]
	for j := range s.peers {
		if j == i || s.peers[j].done {
			continue
		}
		if s.interested(j, i) {
			s.scratch = append(s.scratch, j)
		}
	}
	cand := s.scratch
	s.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	switch c {
	case swarm.ClientBT:
		sort.SliceStable(cand, func(a, b int) bool { return p.rate[cand[a]] > p.rate[cand[b]] })
	case swarm.ClientBirds:
		own := p.upKBps / float64(slotsOf(c))
		sort.SliceStable(cand, func(a, b int) bool {
			return math.Abs(p.rate[cand[a]]-own) < math.Abs(p.rate[cand[b]]-own)
		})
	case swarm.ClientLoyal:
		sort.SliceStable(cand, func(a, b int) bool {
			if p.streak[cand[a]] != p.streak[cand[b]] {
				return p.streak[cand[a]] > p.streak[cand[b]]
			}
			return p.rate[cand[a]] > p.rate[cand[b]]
		})
	case swarm.ClientSortS:
		sort.SliceStable(cand, func(a, b int) bool { return p.rate[cand[a]] < p.rate[cand[b]] })
	case swarm.ClientRandom:
		s.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	}
	k := slotsOf(c)
	if k > len(cand) {
		k = len(cand)
	}
	p.unchoked = append(p.unchoked[:0], cand[:k]...)

	mode := optimisticOf(c)
	need := mode == optimisticAlways ||
		(mode == optimisticWhenNeeded && len(p.unchoked) < slotsOf(c))
	if need {
		if period%s.cfg.OptimisticEvery == 0 || p.optIdx < 0 || s.peers[p.optIdx].done {
			p.optIdx = s.pickOptimistic(i)
		}
	} else {
		p.optIdx = -1
	}
	if p.optIdx >= 0 && !contains(p.unchoked, p.optIdx) {
		p.unchoked = append(p.unchoked, p.optIdx)
	}
}

func (s *state) pickOptimistic(i int) int {
	p := s.peers[i]
	var pool []int
	for j := 0; j < s.nLeech; j++ {
		if j == i || s.peers[j].done || contains(p.unchoked, j) {
			continue
		}
		if s.interested(j, i) {
			pool = append(pool, j)
		}
	}
	if len(pool) == 0 {
		return -1
	}
	return pool[s.rng.Intn(len(pool))]
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (s *state) transfer(sec int) {
	s.seconds++
	for v := 0; v < s.nLeech; v++ {
		if s.peers[v].downKBps > 0 {
			s.downBudget[v] = s.peers[v].downKBps
		} else {
			s.downBudget[v] = math.Inf(1)
		}
	}
	for v := 0; v < s.nLeech; v++ {
		pv := s.peers[v]
		if pv.done {
			continue
		}
		for p := 0; p < s.nPieces; p++ {
			pv.assigned[p] = -1
		}
	}
	for u := range s.peers {
		up := s.peers[u]
		if up.done || len(up.unchoked) == 0 {
			continue
		}
		s.scratch = s.scratch[:0]
		for _, v := range up.unchoked {
			if s.peers[v].done {
				continue
			}
			if s.pickPiece(v, u) >= 0 {
				s.scratch = append(s.scratch, v)
			}
		}
		if len(s.scratch) == 0 {
			continue
		}
		share := up.upKBps / float64(len(s.scratch))
		s.activeEdges += len(s.scratch)
		for _, v := range s.scratch {
			s.deliver(v, u, share, sec)
		}
	}
}

func (s *state) pickPiece(v, u int) int {
	pv, pu := s.peers[v], s.peers[u]
	for p := 0; p < s.nPieces; p++ {
		if pv.assigned[p] == u && !pv.have[p] {
			return p
		}
	}
	bestPartial, bestAmt := -1, 0.0
	for p := 0; p < s.nPieces; p++ {
		if !pu.have[p] || pv.have[p] || pv.assigned[p] >= 0 {
			continue
		}
		if pv.partial[p] > bestAmt {
			bestPartial, bestAmt = p, pv.partial[p]
		}
	}
	if bestPartial >= 0 {
		pv.assigned[bestPartial] = u
		return bestPartial
	}
	off := s.rng.Intn(s.nPieces)
	best, bestAvail := -1, math.MaxInt32
	for i := 0; i < s.nPieces; i++ {
		p := (off + i) % s.nPieces
		if !pu.have[p] || pv.have[p] || pv.assigned[p] >= 0 {
			continue
		}
		if s.avail[p] < bestAvail {
			best, bestAvail = p, s.avail[p]
		}
	}
	if best >= 0 {
		pv.assigned[best] = u
		return best
	}
	if s.nPieces-pv.haveCnt > endgamePieces {
		return -1
	}
	for i := 0; i < s.nPieces; i++ {
		p := (off + i) % s.nPieces
		if !pu.have[p] || pv.have[p] {
			continue
		}
		if s.avail[p] < bestAvail {
			best, bestAvail = p, s.avail[p]
		}
	}
	return best
}

const endgamePieces = 3

func (s *state) deliver(v, u int, kib float64, sec int) {
	pv := s.peers[v]
	if kib > s.downBudget[v] {
		s.wasted += kib - s.downBudget[v]
		kib = s.downBudget[v]
	}
	s.downBudget[v] -= kib
	for kib > 0 && !pv.done {
		p := s.pickPiece(v, u)
		if p < 0 {
			s.wasted += kib
			return
		}
		needed := float64(s.cfg.PieceKiB) - pv.partial[p]
		take := kib
		if take > needed {
			take = needed
		}
		pv.partial[p] += take
		pv.gotThisPeriod[u] += take
		s.goodput += take
		kib -= take
		if pv.partial[p] >= float64(s.cfg.PieceKiB) {
			pv.have[p] = true
			pv.haveCnt++
			pv.assigned[p] = -1
			s.avail[p]++
			if pv.haveCnt == s.nPieces {
				s.complete(v, sec)
			}
		}
	}
}

func (s *state) complete(v, sec int) {
	pv := s.peers[v]
	pv.done = true
	pv.doneAt = sec
	s.remaining--
	for p := 0; p < s.nPieces; p++ {
		if pv.have[p] {
			s.avail[p]--
		}
	}
}
