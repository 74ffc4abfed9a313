// Package delivery applies Design Space Analysis to a third domain —
// swarm content-delivery orchestration — the paper's own closing pitch
// (Section 7) that DSA generalises to any distributed-coordination
// design problem, instantiated on the design space of a debswarm-style
// fleet downloader: a client fetching a chunked file from a swarm of
// peers and/or an HTTP mirror, deciding which peers to trust, how wide
// to fan out, when to give up on a slow source, and when to fall back
// to the mirror.
//
// The simulation sits on the two substrate packages of the Section 5
// validation: internal/bandwidth supplies the heterogeneous peer
// upload-capacity distribution (Piatek et al.), and the file/chunk/
// mirror scale is the Section 5 swarm setup (swarm.Default(): a 5 MiB
// file in 256 KiB pieces, a 128 KiB/s origin — here the mirror plays
// the seeder's role).
//
// # The design space
//
// Five dimensions, 4·4·3·3·4 = 576 design points:
//
//   - Selection: how the client scores peers when assigning a chunk —
//     discrete blends of observed latency, throughput and reliability
//     (Latency, Throughput, Reliability, Balanced). debswarm ranks its
//     peers with exactly these signals.
//   - Fanout: parallel chunk fetches in flight (1, 2, 4, 8).
//   - Racing: P2POnly (never touch the mirror), MirrorOnly (never touch
//     the swarm), Race (start on the swarm, fall back to the mirror for
//     any chunk whose peer fetch times out).
//   - Timeout: Fixed (a flat per-chunk deadline), Adaptive (2.5× the
//     observed mean chunk time), Eager (1.2× — aggressive re-issue).
//   - Scenario: the adversary model the strategy must survive — Honest,
//     FreeRiders (stalling peers that accept requests and deliver
//     nothing), Colluders (under-reporters: instant accept, throttled
//     delivery — they look great to latency scoring), Sybil (peers
//     churn identities, resetting everything the client learned).
//
// Unlike the file-swarming and gossip domains, the adversary is *in*
// the space: a design point is only good if its orchestration policy
// holds up under the scenario it is paired with, which is what the
// robustness measure quantifies (see domain.go).
//
// # Determinism
//
// A run is a pure function of (Strategy, Options): one rand.Rand seeded
// from Options.Seed drives every draw, peers are visited in index
// order, ties in peer selection resolve to the lowest index, and the
// transfer loop iterates chunks in index order. The domain layer
// derives per-run seeds from the point's stable ID via dsa.TaskSeed,
// so any sharding of a sweep recombines byte-identically.
//
// # Performance model
//
// A download is short — tens of simulated seconds over a dozen peers
// and twenty chunks, ~10 µs — and a sweep runs millions, so what a run
// costs before and around its model is held at nothing:
//
//   - Seeding. The generator is internal/gorand's source inside the
//     standard rand.Rand: math/rand's stream for the seed, bit for bit,
//     seeded in under 2 µs where the library's own seeding takes ~10 µs.
//   - Pooled run state. Generator, peers and chunks live in a runState
//     recycled through a sync.Pool; run re-seeds and rewrites every
//     peer and chunk it is going to read, so steady-state Run allocates
//     nothing and a state's history is invisible to its next download.
//     The default capacity distribution is bandwidth.Piatek's shared
//     value.
//   - The live window. Chunks are started lowest index first, so at any
//     second every chunk below lo is done and none at or above hi was
//     ever started; only chunks[lo:hi] can be active, carry a rate or
//     make progress. The per-second passes (active count, assignment,
//     mirror count, rates, downlink scaling, progress) walk that window
//     instead of the file. They walk it in the same ascending order and
//     skip only chunks whose iteration did nothing — an inactive chunk
//     neither draws from the generator nor adds a term to a float sum
//     — so draw order and float operation order are those of a walk
//     over the whole file.
//   - Nothing unobservable. What a strategy cannot observe is not
//     simulated. A MirrorOnly download never asks a peer, so it runs
//     with no peers: no seeding, no spawns, no churn walk. A P2POnly
//     download whose every peer has departed under stress ends there,
//     censored: departed peers never return and nothing is left to
//     draw. An assignment pass stops asking pickPeer after its first
//     refusal — a refusal draws nothing and the pass only makes peers
//     busier — so P2POnly stops assigning and Race sends the remaining
//     chunks to the mirror. And pickPeer finds a pure blend's pick in
//     its counting pass, the first peer holding the goodness maximum;
//     the trap is a field whose every throughput is 0, where the blend
//     scores every peer 0 and the first eligible peer wins, not none.
//
// All of it is inside the byte-identical contract of DESIGN.md's
// "Performance model": no score-version bump, same cache keys. Held by
// testdata/golden.json (recorded before any of the above existed, each
// shortcut's /picked case recorded before that shortcut: TestGolden
// through Run, TestGoldenOnReusedState on one deliberately dirty state,
// TestGoldenConcurrent across goroutines), FuzzPickPeer (against the
// three-pass blend), TestRunAllocFree (0 allocations per download),
// internal/gorand's parity tests and fuzz target, and bench/golden's
// CSV digests.
package delivery

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/gorand"
	"repro/internal/swarm"
)

// Selection is the peer-scoring blend used when assigning a chunk.
type Selection int

// Selection policies: which observed signal ranks peers.
const (
	// SelLatency picks the peer with the lowest observed response
	// latency — fast to react, trivially gamed by colluders.
	SelLatency Selection = iota
	// SelThroughput picks the peer with the highest observed chunk
	// throughput.
	SelThroughput
	// SelReliability picks the peer with the best success/attempt
	// record.
	SelReliability
	// SelBalanced blends all three signals equally.
	SelBalanced
)

// String names the selection policy.
func (s Selection) String() string {
	switch s {
	case SelLatency:
		return "Latency"
	case SelThroughput:
		return "Throughput"
	case SelReliability:
		return "Reliability"
	case SelBalanced:
		return "Balanced"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// weights returns the (latency, throughput, reliability) blend.
func (s Selection) weights() (wl, wt, wr float64) {
	switch s {
	case SelLatency:
		return 1, 0, 0
	case SelThroughput:
		return 0, 1, 0
	case SelReliability:
		return 0, 0, 1
	default:
		return 1.0 / 3, 1.0 / 3, 1.0 / 3
	}
}

// Racing is the mirror policy.
type Racing int

// Racing policies.
const (
	// RaceP2POnly never uses the mirror; if the swarm cannot deliver,
	// the download stalls.
	RaceP2POnly Racing = iota
	// RaceMirrorOnly fetches every chunk from the mirror, sharing its
	// capacity across concurrent fetches.
	RaceMirrorOnly
	// RaceWithFallback starts every chunk on the swarm and re-issues it
	// to the mirror once the peer fetch times out — debswarm's racing
	// strategy.
	RaceWithFallback
)

// String names the racing policy.
func (r Racing) String() string {
	switch r {
	case RaceP2POnly:
		return "P2POnly"
	case RaceMirrorOnly:
		return "MirrorOnly"
	case RaceWithFallback:
		return "Race"
	default:
		return fmt.Sprintf("Racing(%d)", int(r))
	}
}

// Timeout is the per-chunk deadline policy.
type Timeout int

// Timeout policies.
const (
	// TimeoutFixed uses a flat 20 s deadline per chunk.
	TimeoutFixed Timeout = iota
	// TimeoutAdaptive uses 2.5× the observed mean chunk time, clamped
	// to [5 s, 40 s].
	TimeoutAdaptive
	// TimeoutEager uses 1.2× the observed mean chunk time, clamped to
	// [2 s, 40 s] — re-issues aggressively, risking wasted transfers.
	TimeoutEager
)

// String names the timeout policy.
func (t Timeout) String() string {
	switch t {
	case TimeoutFixed:
		return "Fixed"
	case TimeoutAdaptive:
		return "Adaptive"
	case TimeoutEager:
		return "Eager"
	default:
		return fmt.Sprintf("Timeout(%d)", int(t))
	}
}

// Scenario is the adversary model of a run.
type Scenario int

// Adversary scenarios.
const (
	// ScenarioHonest has every peer serve at its true capacity.
	ScenarioHonest Scenario = iota
	// ScenarioFreeRiders makes 40% of peers free riders: they accept
	// chunk requests promptly and then deliver essentially nothing.
	ScenarioFreeRiders
	// ScenarioColluders makes 40% of peers colluding under-reporters:
	// they respond instantly (gaming latency-based selection) but
	// throttle delivery to a quarter of their capacity.
	ScenarioColluders
	// ScenarioSybil churns peer identities: every second each peer may
	// reappear as a fresh identity, aborting its transfer and wiping
	// everything the client had learned about it.
	ScenarioSybil
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioHonest:
		return "Honest"
	case ScenarioFreeRiders:
		return "FreeRiders"
	case ScenarioColluders:
		return "Colluders"
	case ScenarioSybil:
		return "Sybil"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// fanouts are the actualized fan-out widths.
var fanouts = [4]int{1, 2, 4, 8}

// Strategy is one point of the delivery design space.
type Strategy struct {
	Selection Selection
	Fanout    int // parallel chunk fetches: 1, 2, 4 or 8
	Racing    Racing
	Timeout   Timeout
	Scenario  Scenario
}

// Validate reports whether s is inside the actualized space.
func (s Strategy) Validate() error {
	if s.Selection < SelLatency || s.Selection > SelBalanced {
		return fmt.Errorf("delivery: unknown selection %d", int(s.Selection))
	}
	switch s.Fanout {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("delivery: fanout must be 1, 2, 4 or 8, got %d", s.Fanout)
	}
	if s.Racing < RaceP2POnly || s.Racing > RaceWithFallback {
		return fmt.Errorf("delivery: unknown racing policy %d", int(s.Racing))
	}
	if s.Timeout < TimeoutFixed || s.Timeout > TimeoutEager {
		return fmt.Errorf("delivery: unknown timeout policy %d", int(s.Timeout))
	}
	if s.Scenario < ScenarioHonest || s.Scenario > ScenarioSybil {
		return fmt.Errorf("delivery: unknown scenario %d", int(s.Scenario))
	}
	return nil
}

// String returns a compact code, e.g. "Balanced/f4/Race/Adaptive/Sybil".
func (s Strategy) String() string {
	return s.Selection.String() + "/f" + strconv.Itoa(s.Fanout) + "/" + s.Racing.String() + "/" +
		s.Timeout.String() + "/" + s.Scenario.String()
}

// Space returns the delivery design space in core form: 4 selections ×
// 4 fanouts × 3 racing policies × 3 timeout policies × 4 scenarios =
// 576 strategies.
func Space() *core.Space {
	dims := []core.Dimension{
		{Name: "selection", Values: []string{"Latency", "Throughput", "Reliability", "Balanced"}},
		{Name: "fanout", Values: []string{"1", "2", "4", "8"}},
		{Name: "racing", Values: []string{"P2POnly", "MirrorOnly", "Race"}},
		{Name: "timeout", Values: []string{"Fixed", "Adaptive", "Eager"}},
		{Name: "scenario", Values: []string{"Honest", "FreeRiders", "Colluders", "Sybil"}},
	}
	s, err := core.NewSpace("delivery", dims, nil)
	if err != nil {
		panic("delivery: space: " + err.Error())
	}
	return s
}

// FromPoint converts a core point of Space() into a Strategy.
func FromPoint(pt core.Point) (Strategy, error) {
	if len(pt) != 5 {
		return Strategy{}, fmt.Errorf("delivery: point needs 5 coords, got %d", len(pt))
	}
	if pt[1] < 0 || pt[1] >= len(fanouts) {
		return Strategy{}, fmt.Errorf("delivery: fanout index %d out of range", pt[1])
	}
	s := Strategy{
		Selection: Selection(pt[0]),
		Fanout:    fanouts[pt[1]],
		Racing:    Racing(pt[2]),
		Timeout:   Timeout(pt[3]),
		Scenario:  Scenario(pt[4]),
	}
	return s, s.Validate()
}

// Options configures one simulated download.
type Options struct {
	Peers      int   // swarm peers available to the client
	MaxSeconds int   // horizon; a download not finished by then is censored
	Seed       int64 // drives every random draw of the run
	// Churn is a baseline per-second identity-churn probability applied
	// to every peer on top of the scenario's own churn (the Sybil
	// scenario adds its own). In [0,1].
	Churn float64
	// Stress enables the robustness stress mode: peers additionally
	// depart permanently at stressFailPerSec and the mirror serves at
	// half rate — the churn/failure regime the robustness measure
	// compares completion rates under.
	Stress         bool
	FileKiB        int     // file size in KiB
	ChunkKiB       int     // chunk size in KiB
	MirrorKBps     float64 // mirror (origin) upload capacity
	ClientDownKBps float64 // client download capacity shared by concurrent fetches
	// Dist supplies peer upload capacities; nil = bandwidth.Piatek.
	Dist *bandwidth.Distribution
}

// DefaultOptions returns the Section 5 delivery setup: the swarm
// validation's 5 MiB file in 256 KiB chunks with the mirror serving at
// the seeder's 128 KiB/s, 16 peers, a 1 MiB/s client downlink and a
// 600 s horizon.
func DefaultOptions() Options {
	sw := swarm.Default()
	return Options{
		Peers:          16,
		MaxSeconds:     600,
		Seed:           1,
		FileKiB:        sw.FileKiB,
		ChunkKiB:       sw.PieceKiB,
		MirrorKBps:     sw.SeedUploadKBps,
		ClientDownKBps: 1024,
	}
}

func (o Options) validate() error {
	switch {
	case o.Peers < 2:
		return fmt.Errorf("delivery: need at least 2 peers, got %d", o.Peers)
	case o.MaxSeconds < 1:
		return fmt.Errorf("delivery: MaxSeconds must be positive")
	case o.FileKiB < 1 || o.ChunkKiB < 1:
		return fmt.Errorf("delivery: file and chunk sizes must be positive")
	case o.ChunkKiB > o.FileKiB:
		return fmt.Errorf("delivery: chunk larger than file")
	case o.MirrorKBps <= 0:
		return fmt.Errorf("delivery: mirror capacity must be positive")
	case o.ClientDownKBps <= 0:
		return fmt.Errorf("delivery: client download capacity must be positive")
	case math.IsNaN(o.Churn) || o.Churn < 0 || o.Churn > 1:
		return fmt.Errorf("delivery: Churn must be in [0,1], got %v", o.Churn)
	}
	return nil
}

// Result reports one simulated download.
type Result struct {
	// Completed reports whether every chunk arrived within MaxSeconds.
	Completed bool
	// Seconds is the completion time (MaxSeconds when censored).
	Seconds int
	// PeerKiB / MirrorKiB split the delivered bytes by source; their
	// ratio is the mirror-offload measure.
	PeerKiB   float64
	MirrorKiB float64
	// Restarts counts chunk fetches aborted by timeout, churn or peer
	// departure.
	Restarts int
}

// Behaviour constants of the simulation model (documented in
// DESIGN.md; changing any of them changes scores, so they are fixed
// package constants, not options).
const (
	adversaryFrac    = 0.4  // fraction of adversarial peers in FreeRiders/Colluders
	freeRiderKBps    = 0.5  // a free rider's actual delivery rate
	colluderFactor   = 0.25 // a colluder delivers this fraction of its capacity
	colluderLatS     = 0.02 // colluders answer instantly to look attractive
	sybilChurnPerSec = 0.03 // per-second identity churn in the Sybil scenario
	stressFailPerSec = 0.02 // per-second permanent departure under Stress
	stressMirrorFrac = 0.5  // mirror capacity factor under Stress
	exploreEps       = 0.15 // ε-greedy exploration rate of peer selection
	fixedTimeoutS    = 20.0 // TimeoutFixed deadline
	unknownLatPrior  = 0.25 // optimistic latency prior for unattempted peers
	ewmaKeep         = 0.7  // EWMA retention for observed stats
)

// peerState is one swarm peer plus everything the client has observed
// about it.
type peerState struct {
	capKBps   float64
	latS      float64 // true request→first-byte latency in seconds
	freeRider bool
	colluder  bool
	alive     bool
	serving   int // chunk index currently fetched from this peer, -1 none
	// Client-observed statistics (wiped when the peer churns identity):
	ewmaThr  float64 // KiB/s over completed chunks
	ewmaLat  float64 // seconds
	attempts float64
	fails    float64
}

// deliverRate is the peer's actual delivery rate toward the client.
func (p *peerState) deliverRate() float64 {
	switch {
	case p.freeRider:
		return freeRiderKBps
	case p.colluder:
		return colluderFactor * p.capKBps
	default:
		return p.capKBps
	}
}

// chunkState is one chunk of the file.
type chunkState struct {
	done        bool
	active      bool
	src         int // peer index, or -1 for the mirror
	progress    float64
	rate        float64 // this second's transfer rate; written before it is read
	started     int
	forceMirror bool // Race fallback: a timed-out chunk re-issues to the mirror
}

// runState is everything a download allocates. It is recycled through
// statePool, so a sweep's steady state allocates nothing per download;
// run re-seeds the generator and rewrites every peer and chunk before
// it reads one (a MirrorOnly download reads no draw and no peer), so
// nothing of the previous download is visible.
type runState struct {
	rng    *rand.Rand
	peers  []peerState
	chunks []chunkState
}

var statePool = sync.Pool{New: func() any { return &runState{rng: rand.New(gorand.New(0))} }}

// Run simulates one download of strategy s under opt.
func Run(s Strategy, opt Options) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if err := opt.validate(); err != nil {
		return Result{}, err
	}
	st := statePool.Get().(*runState)
	res := st.run(s, opt)
	statePool.Put(st)
	return res, nil
}

// spawn initialises (or re-rolls, on identity churn) one peer.
func spawn(p *peerState, s Strategy, dist *bandwidth.Distribution, rng *rand.Rand) {
	*p = peerState{
		capKBps: dist.Sample(rng),
		latS:    0.05 + float64(0.45*rng.Float64()),
		alive:   true,
		serving: -1,
	}
	switch s.Scenario {
	case ScenarioFreeRiders:
		if rng.Float64() < adversaryFrac {
			p.freeRider = true
			p.latS = 0.05
		}
	case ScenarioColluders:
		if rng.Float64() < adversaryFrac {
			p.colluder = true
			p.latS = colluderLatS
		}
	}
}

func (st *runState) run(s Strategy, opt Options) Result {
	rng := st.rng
	dist := opt.Dist
	if dist == nil {
		dist = bandwidth.Piatek()
	}
	// A MirrorOnly download never asks a peer for a chunk, so nothing
	// it returns depends on the swarm: it runs with no peers, and so
	// with no draw at all.
	peers := st.peers[:0]
	if s.Racing != RaceMirrorOnly {
		rng.Seed(opt.Seed)
		st.peers = slices.Grow(peers, opt.Peers)[:opt.Peers]
		peers = st.peers
		for i := range peers {
			spawn(&peers[i], s, dist, rng)
		}
	}
	livePeers := len(peers)
	nChunks := (opt.FileKiB + opt.ChunkKiB - 1) / opt.ChunkKiB
	st.chunks = slices.Grow(st.chunks[:0], nChunks)[:nChunks]
	chunks := st.chunks
	for i := range chunks {
		chunks[i] = chunkState{src: -1}
	}
	chunkKiB := float64(opt.ChunkKiB)

	mirrorKBps := opt.MirrorKBps
	if opt.Stress {
		mirrorKBps *= stressMirrorFrac
	}

	var res Result
	// ewmaChunkS is the client's running estimate of a chunk's transfer
	// time, seeding the adaptive timeouts; initialised from the
	// distribution's median capacity.
	ewmaChunkS := chunkKiB / dist.Median()

	churnProb := opt.Churn
	if s.Scenario == ScenarioSybil {
		churnProb += sybilChurnPerSec
	}
	if churnProb > 1 {
		churnProb = 1
	}

	abort := func(c *chunkState) {
		if c.src >= 0 {
			peers[c.src].serving = -1
		}
		c.active = false
		c.src = -1
		c.progress = 0
		res.Restarts++
	}

	// The live window: every chunk below lo is done and none at or
	// above hi was ever started, so only chunks[lo:hi] can be active.
	lo, hi := 0, 0
	for sec := 0; sec < opt.MaxSeconds; sec++ {
		// 1. Churn and stress departures, peers in index order.
		for i := range peers {
			p := &peers[i]
			if !p.alive {
				continue
			}
			if churnProb > 0 && rng.Float64() < churnProb {
				// Identity churn: the transfer dies and the client's
				// knowledge of the peer evaporates with its old name.
				if p.serving >= 0 {
					abort(&chunks[p.serving])
				}
				spawn(p, s, dist, rng)
				continue
			}
			if opt.Stress && rng.Float64() < stressFailPerSec {
				if p.serving >= 0 {
					abort(&chunks[p.serving])
				}
				p.alive = false
				livePeers--
			}
		}
		if livePeers == 0 && s.Racing == RaceP2POnly {
			// Departed peers never return: nothing is in flight, nothing
			// can start and nothing draws again before the horizon.
			break
		}

		// 2. Assignment: top up to Fanout in-flight chunks, lowest
		// unfinished chunk first. A refusal from pickPeer draws nothing
		// and the pass only makes peers busier, so after the first one
		// no later chunk of this second can get a peer either.
		active := 0
		for i := lo; i < hi; i++ {
			if chunks[i].active {
				active++
			}
		}
		refused := false
		for next := lo; active < s.Fanout && next < nChunks; next++ {
			c := &chunks[next]
			if c.done || c.active {
				continue
			}
			useMirror := s.Racing == RaceMirrorOnly || (s.Racing == RaceWithFallback && (c.forceMirror || refused))
			src := -1
			if !useMirror {
				src = pickPeer(peers, s.Selection, rng)
				if src < 0 {
					if s.Racing == RaceP2POnly {
						break // nothing can serve a chunk this second
					}
					useMirror, refused = true, true // Race: no eligible peer, go to the mirror
				}
			}
			if useMirror {
				src = -1
			} else {
				peers[src].serving = next
			}
			c.active = true
			c.src = src
			c.progress = 0
			c.started = sec
			active++
			hi = max(hi, next+1)
		}
		live := chunks[lo:hi]

		// 3. Transfer: nominal per-source rates, scaled down together
		// if they exceed the client's downlink.
		mirrorFetches := 0
		for i := range live {
			if live[i].active && live[i].src < 0 {
				mirrorFetches++
			}
		}
		total := 0.0
		for i := range live {
			c := &live[i]
			c.rate = 0
			if !c.active {
				continue
			}
			if c.src < 0 {
				c.rate = mirrorKBps / float64(mirrorFetches)
			} else {
				p := &peers[c.src]
				r := p.deliverRate()
				if sec == c.started {
					// Request latency eats into the first second.
					r *= math.Max(0, 1-p.latS)
				}
				c.rate = r
			}
			total += c.rate
		}
		if total > opt.ClientDownKBps {
			scale := opt.ClientDownKBps / total
			for i := range live {
				live[i].rate *= scale
			}
		}

		// 4. Progress, completions and timeouts, chunks in index order.
		for i := range live {
			c := &live[i]
			if !c.active {
				continue
			}
			c.progress += c.rate
			elapsed := float64(sec - c.started + 1)
			if c.progress >= chunkKiB {
				c.done = true
				c.active = false
				if c.src >= 0 {
					p := &peers[c.src]
					p.serving = -1
					obsThr := chunkKiB / elapsed
					if p.attempts == 0 {
						p.ewmaThr, p.ewmaLat = obsThr, p.latS
					} else {
						p.ewmaThr = float64(ewmaKeep*p.ewmaThr) + float64((1-ewmaKeep)*obsThr)
						p.ewmaLat = float64(ewmaKeep*p.ewmaLat) + float64((1-ewmaKeep)*p.latS)
					}
					p.attempts++
					res.PeerKiB += chunkKiB
				} else {
					res.MirrorKiB += chunkKiB
				}
				ewmaChunkS = float64(ewmaKeep*ewmaChunkS) + float64((1-ewmaKeep)*elapsed)
				continue
			}
			if c.src >= 0 && elapsed >= s.timeoutS(ewmaChunkS) {
				p := &peers[c.src]
				p.attempts++
				p.fails++
				if p.attempts == 1 {
					p.ewmaLat = p.latS
				}
				abort(c)
				if s.Racing == RaceWithFallback {
					c.forceMirror = true
				}
			}
		}

		for lo < nChunks && chunks[lo].done {
			lo++
		}
		if lo == nChunks {
			res.Completed = true
			res.Seconds = sec + 1
			return res
		}
	}
	res.Seconds = opt.MaxSeconds
	return res
}

// timeoutS returns the current per-chunk deadline in seconds.
func (s Strategy) timeoutS(ewmaChunkS float64) float64 {
	switch s.Timeout {
	case TimeoutAdaptive:
		return clamp(2.5*ewmaChunkS, 5, 40)
	case TimeoutEager:
		return clamp(1.2*ewmaChunkS, 2, 40)
	default:
		return fixedTimeoutS
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// pickPeer chooses an eligible peer (alive, not already serving us) by
// the selection policy, with ε-greedy exploration so unattempted peers
// get observed. Returns -1 if no peer is eligible, without drawing.
// Deterministic given the rng state: eligibility and scoring iterate in
// index order and ties resolve to the lowest index.
//
// One pass counts the eligible peers and finds each goodness's maximum
// and its first holder. A pure blend's score is its goodness divided by
// that maximum (reliability: undivided), and dividing by the maximum
// maps only the maximum itself to 1.0, so the first holder is the
// blend's pick; where the maximum stays 0 (every eligible peer timed
// out before completing a chunk: throughput 0) every score is 0 and the
// first eligible peer wins. Only Balanced needs a scoring pass.
func pickPeer(peers []peerState, sel Selection, rng *rand.Rand) int {
	eligible, first := 0, -1
	maxLat, maxThr, maxRel := 0.0, 0.0, math.Inf(-1)
	latArg, thrArg, relArg := -1, -1, -1
	for i := range peers {
		p := &peers[i]
		if !p.alive || p.serving >= 0 {
			continue
		}
		if eligible == 0 {
			first = i
		}
		eligible++
		if lg := latGoodness(p); lg > maxLat {
			maxLat, latArg = lg, i
		}
		if tg := thrGoodness(p); tg > maxThr {
			maxThr, thrArg = tg, i
		}
		if rg := relGoodness(p); rg > maxRel {
			maxRel, relArg = rg, i
		}
	}
	if eligible == 0 {
		return -1
	}
	if rng.Float64() < exploreEps {
		k := rng.Intn(eligible)
		for i := range peers {
			if peers[i].alive && peers[i].serving < 0 {
				if k == 0 {
					return i
				}
				k--
			}
		}
	}
	best := -1
	switch sel {
	case SelLatency:
		best = latArg
	case SelThroughput:
		best = thrArg
	case SelReliability:
		best = relArg
	default:
		// Normalise latency and throughput goodness by the eligible max
		// so the blend weights act on comparable [0,1] scales.
		wl, wt, wr := sel.weights()
		bestScore := math.Inf(-1)
		for i := range peers {
			p := &peers[i]
			if !p.alive || p.serving >= 0 {
				continue
			}
			score := 0.0
			if maxLat > 0 {
				score += wl * latGoodness(p) / maxLat
			}
			if maxThr > 0 {
				score += wt * thrGoodness(p) / maxThr
			}
			// wr multiplies before the division, not relGoodness: the
			// scores' bits depend on the operation order.
			score += wr * (p.attempts - p.fails + 1) / (p.attempts + 2)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
	}
	if best < 0 {
		return first
	}
	return best
}

// latGoodness is the inverse observed latency; unattempted peers get an
// optimistic prior so they are worth trying.
func latGoodness(p *peerState) float64 {
	lat := p.ewmaLat
	if p.attempts == 0 && p.fails == 0 {
		lat = unknownLatPrior
	}
	return 1 / (0.02 + lat)
}

// relGoodness is the success/attempt record with a uniform prior.
func relGoodness(p *peerState) float64 {
	return (p.attempts - p.fails + 1) / (p.attempts + 2)
}

// thrGoodness is the observed chunk throughput; unattempted peers get
// the optimistic prior of an average peer.
func thrGoodness(p *peerState) float64 {
	if p.attempts == 0 && p.fails == 0 {
		return 50 // the distribution's median class, optimistic prior
	}
	return p.ewmaThr
}
