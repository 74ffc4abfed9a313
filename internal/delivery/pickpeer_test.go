package delivery

// pickPeer against the three-pass blend it replaced: count the eligible
// peers, find both goodness maxima, then score every eligible peer by
// the normalised blend. The fuzz target holds the one-pass version to
// the same index and the same generator position.
//
//	go test ./internal/delivery -run '^$' -fuzz FuzzPickPeer -fuzztime 10s

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gorand"
)

// pickPeerThreePass is pickPeer as it was before the eligible count, the
// maxima and the pure blends' argmax shared one pass.
func pickPeerThreePass(peers []peerState, sel Selection, rng *rand.Rand) int {
	eligible := 0
	for i := range peers {
		if peers[i].alive && peers[i].serving < 0 {
			eligible++
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
	maxLat, maxThr := 0.0, 0.0
	for i := range peers {
		p := &peers[i]
		if !p.alive || p.serving >= 0 {
			continue
		}
		if lg := latGoodness(p); lg > maxLat {
			maxLat = lg
		}
		if tg := thrGoodness(p); tg > maxThr {
			maxThr = tg
		}
	}
	wl, wt, wr := sel.weights()
	best, bestScore := -1, math.Inf(-1)
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
		score += wr * (p.attempts - p.fails + 1) / (p.attempts + 2)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// fuzzPeerBytes is the encoding of one fuzzed peer: flags, attempts,
// fails, throughput, latency.
const fuzzPeerBytes = 5

// decodePeers maps fuzz bytes onto 1–40 peers inside the states a
// download reaches: attempts and fails small whole counts with fails ≤
// attempts, throughput 0 (a peer that only ever timed out) or a
// positive rate, latency in the range a peer's true latency spans. The
// values are coarse so that ties, the unattempted prior and an
// all-zero throughput field come up often.
func decodePeers(data []byte) []peerState {
	n := min(len(data)/fuzzPeerBytes, 40)
	peers := make([]peerState, n)
	for i := range peers {
		b := data[i*fuzzPeerBytes : (i+1)*fuzzPeerBytes]
		attempts := int(b[1] % 8)
		p := peerState{
			alive:    b[0]%4 != 0,
			serving:  -1,
			attempts: float64(attempts),
			fails:    float64(int(b[2]) % (attempts + 1)),
			ewmaLat:  0.02 + 0.0075*float64(b[4]%64),
		}
		if b[0]&4 != 0 {
			p.serving = i
		}
		if b[3]%3 != 0 {
			p.ewmaThr = 0.75 * float64(b[3])
		}
		peers[i] = p
	}
	return peers
}

func FuzzPickPeer(f *testing.F) {
	// Honest field, every selection.
	for sel := range uint8(4) {
		f.Add([]byte{1, 3, 0, 40, 10, 1, 2, 1, 80, 5, 2, 0, 0, 0, 0, 3, 5, 2, 41, 20}, sel, int64(1))
	}
	// Every eligible peer timed out before completing a chunk:
	// throughput 0 across the field.
	f.Add([]byte{1, 1, 1, 0, 8, 1, 1, 1, 0, 3, 1, 2, 2, 0, 9}, uint8(SelThroughput), int64(3))
	// Nobody eligible: dead or busy.
	f.Add([]byte{0, 1, 0, 9, 9, 4, 2, 0, 9, 9}, uint8(SelBalanced), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, seed int64) {
		peers := decodePeers(data)
		if len(peers) == 0 {
			return
		}
		s := Selection(sel % 4)
		before := slices.Clone(peers)
		got, want := rand.New(gorand.New(seed)), rand.New(gorand.New(seed))
		if g, w := pickPeer(peers, s, got), pickPeerThreePass(peers, s, want); g != w {
			t.Fatalf("%v over %+v: pickPeer %d, three-pass blend %d", s, peers, g, w)
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("%v over %+v: next draw %d after pickPeer, %d after the three-pass blend", s, peers, g, w)
		}
		if !slices.Equal(peers, before) {
			t.Fatalf("%v: pickPeer changed the peers", s)
		}
	})
}
