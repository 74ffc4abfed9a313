// Package swarm is a piece-level BitTorrent swarm simulator — the
// stand-in for the instrumented BitTorrent client on a cluster used to
// validate DSA in Section 5 of the paper (see DESIGN.md for the
// substitution argument).
//
// The simulation is time-stepped at one-second ticks. A swarm consists
// of one or more seeders (upload 128 KiB/s in the paper's setup) and
// leechers with heterogeneous upload capacities downloading a 5 MiB
// file of 256 KiB pieces via a full-mesh overlay (the paper used a
// local tracker with 50 leechers). Every choke interval (10 s) each
// leecher re-evaluates its unchokes: it ranks interested peers with its
// client's ranking policy over observed download rates and unchokes the
// top slots; optimistic unchokes follow the client's stranger policy.
// Piece selection is rarest-first. Peers depart on completion. The
// recorded metric is per-leecher download time, reported with 95%
// confidence intervals as in Figures 9 and 10.
//
// Client variants map the DSA-discovered protocols onto the choke
// algorithm:
//
//   - ClientBT: sort fastest, periodic optimistic unchoke (reference).
//   - ClientBirds: sort by proximity to own per-slot rate (Section 2.3).
//   - ClientLoyal: sort loyal + optimistic unchoke only when slots are
//     empty ("Loyal-When-needed", the Section 5 DSA pick).
//   - ClientSortS: one slot, sort slowest, no optimistic unchoke.
//   - ClientRandom: random ranking, periodic optimistic unchoke.
//
// # Performance model
//
// The transfer loop is engineered to be allocation-free and scan-free
// in steady state, byte-identical to the frozen seed implementation in
// reference_test.go (same RNG draw order, same float operation
// order — the golden-parity suite pins it):
//
//   - Piece assignments carry a per-second epoch instead of being
//     reset: the seed's O(nLeech × nPieces) clear at the top of every
//     second is gone, and pooled states stay valid because the epoch
//     counter keeps increasing across runs.
//   - Every leecher keeps an incremental want list (pieces it still
//     lacks, swap-removed on completion), so the piece scans in
//     pickPiece and the interest checks shrink as the download
//     progresses instead of staying O(nPieces). Want-list order never
//     affects results: every selection minimises an explicit
//     (availability, cyclic-offset) or (progress, index) key that
//     reproduces the seed's scan-order tie-breaking exactly.
//   - Each leecher also keeps a per-uploader assignment slot, making
//     the seed's "piece already assigned from this uploader" scan O(1).
//   - The choke rankings run on alloc-free stable insertion sorts
//     (identical output to the seed's sort.SliceStable by stability),
//     and state is pooled across runs (see states).
package swarm

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bandwidth"
	"repro/internal/gorand"
)

// Client identifies a choke-algorithm variant.
type Client int

// The client variants evaluated in Section 5.
const (
	ClientBT Client = iota
	ClientBirds
	ClientLoyal
	ClientSortS
	ClientRandom
	numClients
)

// String returns the client name as used in the paper's figures.
func (c Client) String() string {
	switch c {
	case ClientBT:
		return "BitTorrent"
	case ClientBirds:
		return "Birds"
	case ClientLoyal:
		return "Loyal-When-needed"
	case ClientSortS:
		return "Sort-S"
	case ClientRandom:
		return "Random"
	default:
		return fmt.Sprintf("Client(%d)", int(c))
	}
}

// slots returns the client's regular unchoke slot count.
func (c Client) slots() int {
	if c == ClientSortS {
		return 1
	}
	return 3
}

// optimistic reports whether the client uses periodic optimistic
// unchokes unconditionally (BT-style), only when needed (Loyal), or
// never (Sort-S).
func (c Client) optimistic() optimisticMode {
	switch c {
	case ClientSortS:
		return optimisticNever
	case ClientLoyal:
		return optimisticWhenNeeded
	default:
		return optimisticAlways
	}
}

type optimisticMode int

const (
	optimisticAlways optimisticMode = iota
	optimisticWhenNeeded
	optimisticNever
)

// Config describes a swarm experiment. The zero value is not valid;
// start from Default().
type Config struct {
	FileKiB         int     // file size in KiB (paper: 5 MiB)
	PieceKiB        int     // piece size in KiB
	SeedUploadKBps  float64 // seeder upload capacity (paper: 128)
	Seeders         int     // number of seeders (paper: 1)
	SeederSlots     int     // concurrent seeder unchokes
	ChokeIntervalS  int     // choke re-evaluation period in seconds (10)
	OptimisticEvery int     // optimistic rotation, in choke periods (3)
	MaxSeconds      int     // safety cap per run
	Seed            int64
	// DownCapFactor caps a leecher's download rate at this multiple of
	// its upload capacity (home links are asymmetric; Piatek et al.
	// measured roughly 5×). 0 disables the cap. Download caps stagger
	// completions, which keeps the last pieces replicating after early
	// finishers depart.
	DownCapFactor float64
	// DownFloorKBps is the minimum download capacity applied with
	// DownCapFactor, so the slowest uploaders are not starved beyond
	// realism.
	DownFloorKBps float64
	// Dist supplies leecher upload capacities; nil = Piatek.
	Dist *bandwidth.Distribution
}

// Default returns the Section 5 experimental setup: 5 MiB file in
// 256 KiB pieces, one 128 KiB/s seeder, 10 s choke interval, 30 s
// optimistic rotation.
func Default() Config {
	return Config{
		FileKiB:         5 * 1024,
		PieceKiB:        256,
		SeedUploadKBps:  128,
		Seeders:         1,
		SeederSlots:     4,
		ChokeIntervalS:  10,
		OptimisticEvery: 3,
		MaxSeconds:      3600,
		Seed:            1,
		DownCapFactor:   5,
		DownFloorKBps:   100,
	}
}

func (c Config) validate() error {
	switch {
	case c.FileKiB < 1 || c.PieceKiB < 1:
		return fmt.Errorf("swarm: file and piece sizes must be positive")
	case c.PieceKiB > c.FileKiB:
		return fmt.Errorf("swarm: piece larger than file")
	case c.SeedUploadKBps <= 0:
		return fmt.Errorf("swarm: seeder upload must be positive")
	case c.Seeders < 1:
		return fmt.Errorf("swarm: need at least one seeder")
	case c.SeederSlots < 1:
		return fmt.Errorf("swarm: need at least one seeder slot")
	case c.ChokeIntervalS < 1 || c.OptimisticEvery < 1:
		return fmt.Errorf("swarm: intervals must be positive")
	case c.MaxSeconds < 1:
		return fmt.Errorf("swarm: MaxSeconds must be positive")
	}
	return nil
}

func (c Config) pieces() int {
	return (c.FileKiB + c.PieceKiB - 1) / c.PieceKiB
}

// Result reports one swarm run.
type Result struct {
	// Times[i] is leecher i's download time in seconds; math.Inf(1) if
	// it did not finish within MaxSeconds (Censored reports how many).
	Times    []float64
	Censored int
	// Goodput is the total KiB of useful piece data delivered.
	Goodput float64
	// Wasted is the total KiB of duplicate endgame bytes discarded.
	Wasted float64
	// MeanActiveEdges is the average number of transferring
	// uploader→downloader edges per second while the swarm ran.
	MeanActiveEdges float64
}

// CampMean returns the mean download time of the leechers whose index
// satisfies the predicate, ignoring censored peers.
func (r Result) CampMean(in func(i int) bool) float64 {
	var s float64
	n := 0
	for i, t := range r.Times {
		if in(i) && !math.IsInf(t, 1) {
			s += t
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return s / float64(n)
}

// peer is one participant (leecher or seeder).
type peer struct {
	client   Client
	seed     bool
	upKBps   float64
	downKBps float64 // 0 = uncapped
	have     []bool
	haveCnt  int
	done     bool
	doneAt   int
	unchoked []int // peer ids currently unchoked by this peer
	optIdx   int   // current optimistic unchoke target (-1 none)
	// partial[p] = KiB received toward piece p.
	partial []float64
	// assigned[p] = uploader currently serving piece p to us, valid
	// only while assignedAt[p] matches the state's second epoch — the
	// per-second reassignment the seed implemented by clearing the
	// whole array every second.
	assigned   []int32
	assignedAt []int64
	// fromPiece[u] = the piece currently assigned from uploader u
	// (valid under fromAt[u], -1 none): the O(1) form of the seed's
	// "existing assignment first" scan. At most one piece per
	// (downloader, uploader) pair is ever live within a second.
	fromPiece []int32
	fromAt    []int64
	// want lists the pieces this leecher still lacks (swap-removed on
	// completion; order is irrelevant to results — see the package
	// comment); wantPos[p] is p's index in want, -1 once held.
	want    []int32
	wantPos []int32
	// rate[j] = EMA of KiB/s received from j (choke-period granularity).
	rate []float64
	// gotThisPeriod[j] = KiB received from j during the current period.
	gotThisPeriod []float64
	// streak[j] = consecutive choke periods with data from j.
	streak []int
}

// Run simulates one swarm: clients[i] is leecher i's variant. Returns
// per-leecher download times. Seeders are appended internally and not
// reported.
func Run(clients []Client, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(clients) < 1 {
		return Result{}, fmt.Errorf("swarm: need at least one leecher")
	}
	for i, c := range clients {
		if c < 0 || c >= numClients {
			return Result{}, fmt.Errorf("swarm: leecher %d has unknown client %d", i, int(c))
		}
	}
	s := getState(clients, cfg)
	for sec := 0; sec < cfg.MaxSeconds; sec++ {
		if sec%cfg.ChokeIntervalS == 0 {
			s.rechoke(sec / cfg.ChokeIntervalS)
		}
		s.transfer(sec)
		if s.remaining == 0 {
			break
		}
	}
	res := Result{Times: make([]float64, len(clients))}
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
	putState(s)
	return res, nil
}

type state struct {
	cfg       Config
	rng       *rand.Rand
	peers     []*peer
	nLeech    int
	nPieces   int
	avail     []int // availability count per piece (present peers)
	remaining int   // unfinished leechers
	scratch   []int
	scratch2  []int // pickOptimistic's pool (the seed allocated it per call)

	goodput     float64
	wasted      float64
	activeEdges int
	seconds     int
	downBudget  []float64 // per-leecher remaining download KiB this second
	// epoch validates piece assignments: bumped at the top of every
	// simulated second and monotonic across pooled runs, so stale
	// assignedAt/fromAt stamps — from earlier seconds or earlier runs
	// — can never match.
	epoch int64
}

func newState(clients []Client, cfg Config) *state {
	nL := len(clients)
	n := nL + cfg.Seeders
	nP := cfg.pieces()
	s := &state{
		cfg:     cfg,
		rng:     rand.New(gorand.New(cfg.Seed)),
		peers:   make([]*peer, n),
		nLeech:  nL,
		nPieces: nP,
		avail:   make([]int, nP),
	}
	s.downBudget = make([]float64, nL)
	for i := 0; i < n; i++ {
		s.peers[i] = &peer{
			have:          make([]bool, nP),
			partial:       make([]float64, nP),
			assigned:      make([]int32, nP),
			assignedAt:    make([]int64, nP),
			fromPiece:     make([]int32, n),
			fromAt:        make([]int64, n),
			want:          make([]int32, 0, nP),
			wantPos:       make([]int32, nP),
			rate:          make([]float64, n),
			gotThisPeriod: make([]float64, n),
			streak:        make([]int, n),
		}
	}
	s.reset(clients, cfg)
	return s
}

// reset prepares a (fresh or pooled) state for one run. The epoch
// counter is NOT reset — its monotonicity is what keeps the pooled
// assignment slabs valid without clearing them.
func (s *state) reset(clients []Client, cfg Config) {
	nL := len(clients)
	n := nL + cfg.Seeders
	nP := cfg.pieces()
	s.cfg = cfg
	s.rng.Seed(cfg.Seed)
	s.remaining = nL
	s.goodput, s.wasted = 0, 0
	s.activeEdges, s.seconds = 0, 0
	dist := cfg.Dist
	if dist == nil {
		dist = bandwidth.Piatek()
	}
	caps := dist.Stratified(nL)
	for i := 0; i < n; i++ {
		p := s.peers[i]
		p.haveCnt = 0
		p.done = false
		p.doneAt = 0
		p.unchoked = p.unchoked[:0]
		p.optIdx = -1
		p.want = p.want[:0]
		for j := range p.have {
			p.have[j] = false
			p.partial[j] = 0
		}
		for j := range p.rate {
			p.rate[j] = 0
			p.gotThisPeriod[j] = 0
			p.streak[j] = 0
		}
		if i < nL {
			p.client = clients[i]
			p.seed = false
			p.upKBps = caps[i]
			p.downKBps = 0
			if cfg.DownCapFactor > 0 {
				p.downKBps = cfg.DownCapFactor * caps[i]
				if p.downKBps < cfg.DownFloorKBps {
					p.downKBps = cfg.DownFloorKBps
				}
			}
			for j := 0; j < nP; j++ {
				p.want = append(p.want, int32(j))
				p.wantPos[j] = int32(j)
			}
		} else {
			p.seed = true
			p.client = 0
			p.upKBps = cfg.SeedUploadKBps
			p.downKBps = 0
			for j := range p.have {
				p.have[j] = true
				p.wantPos[j] = -1
			}
			p.haveCnt = nP
		}
	}
	for pc := range s.avail {
		s.avail[pc] = cfg.Seeders
	}
}

// interested reports whether a wants anything b has.
func (s *state) interested(a, b int) bool {
	pa, pb := s.peers[a], s.peers[b]
	if pa.done || pb.done {
		return false
	}
	if pb.seed {
		return !pa.done
	}
	for _, p := range pa.want {
		if pb.have[p] {
			return true
		}
	}
	return false
}

// rechoke re-evaluates every present peer's unchoke set at the given
// choke-period index.
func (s *state) rechoke(period int) {
	// Fold the period's received bytes into rate EMAs and streaks.
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
				p.rate[j] = float64(0.5*p.rate[j]) + float64(0.5*obs)
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

// rechokeSeeder grants SeederSlots uniform-random interested leechers —
// the "seeders interact uniformly with all peers" assumption (Chow et
// al., adopted in Section 2.1).
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

// rechokeLeecher applies the client's ranking policy. The rankings run
// on stable insertion sorts with the seed's comparators: stability
// makes their output identical to sort.SliceStable's, without the
// per-call closure allocations.
func (s *state) rechokeLeecher(i, period int) {
	p := s.peers[i]
	c := p.client
	// Candidates: present peers interested in what we have (they can
	// use our unchoke) — for ranking purposes we consider everyone who
	// could reciprocate, i.e. all present leechers and seeders we are
	// connected to. Rank by observed download rate FROM them.
	s.scratch = s.scratch[:0]
	for j := range s.peers {
		if j == i || s.peers[j].done {
			continue
		}
		if s.interested(j, i) { // they want our pieces
			s.scratch = append(s.scratch, j)
		}
	}
	cand := s.scratch
	// Shuffle before the stable sort so rate ties (ubiquitous in the
	// first periods, when every observed rate is zero) break uniformly
	// instead of by peer index — index order is capacity order here.
	s.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	switch c {
	case ClientBT:
		rate := p.rate
		for x := 1; x < len(cand); x++ {
			v, y := cand[x], x-1
			for y >= 0 && rate[v] > rate[cand[y]] {
				cand[y+1] = cand[y]
				y--
			}
			cand[y+1] = v
		}
	case ClientBirds:
		rate := p.rate
		own := p.upKBps / float64(c.slots())
		for x := 1; x < len(cand); x++ {
			v, y := cand[x], x-1
			kv := math.Abs(rate[v] - own)
			for y >= 0 && kv < math.Abs(rate[cand[y]]-own) {
				cand[y+1] = cand[y]
				y--
			}
			cand[y+1] = v
		}
	case ClientLoyal:
		rate, streak := p.rate, p.streak
		for x := 1; x < len(cand); x++ {
			v, y := cand[x], x-1
			for y >= 0 && (streak[v] > streak[cand[y]] ||
				(streak[v] == streak[cand[y]] && rate[v] > rate[cand[y]])) {
				cand[y+1] = cand[y]
				y--
			}
			cand[y+1] = v
		}
	case ClientSortS:
		rate := p.rate
		for x := 1; x < len(cand); x++ {
			v, y := cand[x], x-1
			for y >= 0 && rate[v] < rate[cand[y]] {
				cand[y+1] = cand[y]
				y--
			}
			cand[y+1] = v
		}
	case ClientRandom:
		s.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	}
	k := c.slots()
	if k > len(cand) {
		k = len(cand)
	}
	p.unchoked = append(p.unchoked[:0], cand[:k]...)

	// Optimistic unchoke per the client's stranger policy.
	mode := c.optimistic()
	need := mode == optimisticAlways ||
		(mode == optimisticWhenNeeded && len(p.unchoked) < c.slots())
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

// pickOptimistic returns a uniform-random present peer interested in i
// that is not already unchoked, or -1.
func (s *state) pickOptimistic(i int) int {
	p := s.peers[i]
	s.scratch2 = s.scratch2[:0]
	for j := 0; j < s.nLeech; j++ {
		if j == i || s.peers[j].done || contains(p.unchoked, j) {
			continue
		}
		if s.interested(j, i) {
			s.scratch2 = append(s.scratch2, j)
		}
	}
	if len(s.scratch2) == 0 {
		return -1
	}
	return s.scratch2[s.rng.Intn(len(s.scratch2))]
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// transfer moves one second of data along every active unchoke edge.
func (s *state) transfer(sec int) {
	s.seconds++
	// New second, new assignment epoch: every piece is re-pickable and
	// single-sourced again (no duplicates outside endgame), but a fat
	// upload pipe can chain through several pieces, and a piece served
	// by a slow source is re-pickable next second — the one-second
	// request granularity that block-level pipelining gives real
	// clients. (The seed cleared every leecher's whole assigned array
	// here; the epoch bump invalidates them all for free.)
	s.epoch++
	for v := 0; v < s.nLeech; v++ {
		if s.peers[v].downKBps > 0 {
			s.downBudget[v] = s.peers[v].downKBps
		} else {
			s.downBudget[v] = math.Inf(1)
		}
	}
	for u := range s.peers {
		up := s.peers[u]
		if up.done || len(up.unchoked) == 0 {
			continue
		}
		// Active targets: unchoked, present, and with a piece to take.
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

// assignedTo returns the uploader currently serving piece p to pv this
// second, or -1.
func (s *state) assignedTo(pv *peer, p int32) int32 {
	if pv.assignedAt[p] == s.epoch {
		return pv.assigned[p]
	}
	return -1
}

// assign records that uploader u serves piece p to pv this second.
func (s *state) assign(pv *peer, p int32, u int) {
	pv.assigned[p] = int32(u)
	pv.assignedAt[p] = s.epoch
	pv.fromPiece[u] = p
	pv.fromAt[u] = s.epoch
}

// pickPiece returns the piece v should fetch from u: the piece already
// assigned to u if any, else the rarest piece u has, v lacks, and no
// other uploader is currently assigned. When every wanted piece is
// already assigned elsewhere, it falls back to duplicating the rarest
// wanted piece (BitTorrent's endgame mode) — without this, a piece
// locked to a slow source head-of-line-blocks the whole download.
// Returns -1 if u has nothing v wants.
//
// All three searches walk v's want list, whose order varies with
// completion history; the explicit minimisation keys below reproduce
// the seed's ascending / random-offset-cyclic scan order exactly, so
// the picked piece never depends on want-list order.
func (s *state) pickPiece(v, u int) int {
	pv, pu := s.peers[v], s.peers[u]
	// Existing assignment first: O(1) via the per-uploader slot (at
	// most one piece per (v,u) pair is live within a second).
	if pv.fromAt[u] == s.epoch {
		if p := pv.fromPiece[u]; p >= 0 && !pv.have[p] {
			return int(p)
		}
	}
	// In-progress pieces next: finish what is started (most-complete
	// first, ties to the lowest piece index like the seed's ascending
	// scan), as real clients do. Without this, per-second source
	// re-picking scatters progress across many partial pieces and no
	// piece ever completes.
	bestPartial, bestAmt := int32(-1), 0.0
	for _, p := range pv.want {
		if !pu.have[p] || s.assignedTo(pv, p) >= 0 {
			continue
		}
		if pv.partial[p] > bestAmt || (pv.partial[p] == bestAmt && bestPartial >= 0 && p < bestPartial) {
			bestPartial, bestAmt = p, pv.partial[p]
		}
	}
	if bestPartial >= 0 {
		s.assign(pv, bestPartial, u)
		return int(bestPartial)
	}
	// Rarest-first with randomised tie-breaking: the seed scanned from
	// a random offset so equally-rare pieces are picked uniformly —
	// deterministic tie-breaking would make every peer fetch pieces in
	// the same global order, keeping piece sets identical and
	// collapsing mutual interest (the classic synchronized-piece-set
	// pathology real clients avoid by randomising rarest-first). The
	// same draw, applied as a minimisation over (availability, cyclic
	// distance from the offset), picks the identical piece.
	off := s.rng.Intn(s.nPieces)
	best, bestAvail, bestCyc := int32(-1), math.MaxInt32, math.MaxInt32
	for _, p := range pv.want {
		if !pu.have[p] || s.assignedTo(pv, p) >= 0 {
			continue
		}
		cyc := int(p) - off
		if cyc < 0 {
			cyc += s.nPieces
		}
		if s.avail[p] < bestAvail || (s.avail[p] == bestAvail && cyc < bestCyc) {
			best, bestAvail, bestCyc = p, s.avail[p], cyc
		}
	}
	if best >= 0 {
		s.assign(pv, best, u)
		return int(best)
	}
	// Endgame: only when v is down to its last few pieces, duplicate
	// the rarest wanted piece u has. The original assignment is kept;
	// surplus bytes are wasted, as in real clients. Duplicating any
	// earlier floods the swarm with redundant bytes — mid-game piece
	// sets overlap heavily in a 20-piece file.
	if len(pv.want) > endgamePieces {
		return -1
	}
	for _, p := range pv.want {
		if !pu.have[p] {
			continue
		}
		cyc := int(p) - off
		if cyc < 0 {
			cyc += s.nPieces
		}
		if s.avail[p] < bestAvail || (s.avail[p] == bestAvail && cyc < bestCyc) {
			best, bestAvail, bestCyc = p, s.avail[p], cyc
		}
	}
	return int(best)
}

// endgamePieces is the remaining-piece threshold below which duplicate
// fetching (endgame mode) is allowed.
const endgamePieces = 3

// deliver moves kib KiB from u to v's current piece, completing pieces
// and possibly the whole download.
func (s *state) deliver(v, u int, kib float64, sec int) {
	pv := s.peers[v]
	// Download cap: clip to v's remaining intake this second; the
	// overflow is wasted sender capacity (no per-stream backpressure
	// reallocation in the fluid model).
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
			s.obtain(pv, int32(p))
			s.avail[p]++
			if pv.haveCnt == s.nPieces {
				s.complete(v, sec)
			}
		}
	}
}

// obtain marks piece p held by pv: want-list removal, assignment
// teardown (including the uploader's per-pair slot, which may belong
// to a different uploader than the endgame deliverer).
func (s *state) obtain(pv *peer, p int32) {
	pv.have[p] = true
	pv.haveCnt++
	if u := s.assignedTo(pv, p); u >= 0 {
		if pv.fromAt[u] == s.epoch && pv.fromPiece[u] == p {
			pv.fromPiece[u] = -1
		}
		pv.assigned[p] = -1
	}
	pos := pv.wantPos[p]
	last := int32(len(pv.want) - 1)
	moved := pv.want[last]
	pv.want[pos] = moved
	pv.wantPos[moved] = pos
	pv.want = pv.want[:last]
	pv.wantPos[p] = -1
}

// complete marks leecher v finished at the given second and removes it
// from the swarm.
func (s *state) complete(v, sec int) {
	pv := s.peers[v]
	pv.done = true
	pv.doneAt = sec
	s.remaining--
	// Its copies leave with it.
	for p := 0; p < s.nPieces; p++ {
		if pv.have[p] {
			s.avail[p]--
		}
	}
	// Drop any assignment bookkeeping pointing at v: other peers keep
	// their own assigned maps (entries referencing v as uploader are
	// cleared lazily by pickPiece via the done check in transfer).
}
