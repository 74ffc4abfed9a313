// Package gorand is math/rand's Go 1 seeded source with a cheap Seed.
//
// The simulators of this repository are deterministic per seed, and
// their committed golden values were produced through
// rand.New(rand.NewSource(seed)), so the stream a seed names is fixed
// for good. What is not fixed is what it costs to start one. The
// standard library seeds its 607-word additive lagged-Fibonacci ring by
// walking a Lehmer generator x ← 48271·x mod (2³¹−1) through 1 841
// dependent steps, each a Schrage division — about 10 µs, which is a
// third of a short delivery download's whole cost. Step k of that walk
// is 48271ᵏ·x₀ mod (2³¹−1), so with the powers tabulated once the 1 821
// values the ring is built from are independent multiplications, each
// reduced by folding at bit 31 (2³¹ ≡ 1), and the processor overlaps
// them: under 2 µs.
//
// Everything else is the standard library's: Source implements
// rand.Source64 and is meant to be wrapped in rand.New, so Float64,
// Intn, Shuffle and every other distribution run the library's code
// over this source's words. Seed works in place and allocates nothing,
// which is what lets a pooled simulator state keep one *rand.Rand for
// its lifetime (rand.Rand.Seed forwards here).
//
// The ring's step (Uint64) is math/rand's, copyright the Go Authors
// under their BSD-style licence. The 607-word additive constant table
// (rngCooked there) is not copied: init recovers it from 607 outputs of
// a library source — see recoverCooked. DESIGN.md ("Performance model")
// says which simulators use this source and which deliberately do not.
package gorand

import "math/rand"

const (
	ringLen = 607
	ringTap = 273
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// The library discards this many Lehmer steps before it builds the
	// ring, then uses three per ring word.
	lehmerWarmup = 20
)

var (
	// powers[i][j] is 48271^(lehmerWarmup+3i+j+1) mod (2³¹−1): the
	// multiplier taking the reduced seed to the j-th of the three
	// Lehmer values that make ring word i.
	powers [ringLen][3]uint32
	// cooked[i] is XORed into ring word i (math/rand's rngCooked).
	cooked [ringLen]uint64
)

// mulmod returns a·x mod (2³¹−1) for 0 < a, x < 2³¹−1. One fold at bit
// 31 leaves at most 2·(2³¹−1), and exactly that or 2³¹−1 only for a
// product divisible by the (prime) modulus, which these operands rule
// out — so one conditional subtraction finishes the reduction.
func mulmod(a, x uint64) uint64 {
	p := a * x
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

func init() {
	x := uint64(1)
	for k := 0; k < lehmerWarmup; k++ {
		x = mulmod(lehmerA, x)
	}
	for i := range powers {
		for j := range powers[i] {
			x = mulmod(lehmerA, x)
			powers[i][j] = uint32(x)
		}
	}
	recoverCooked()
}

// recoverCooked fills cooked from the standard library: a library
// source's first 607 outputs determine the ring it was seeded with (run
// the additive recurrence backwards), and that ring is cooked XOR the
// Lehmer words, which Seed computes while cooked is still zero. Twenty
// lines and ~15 µs at start-up against a 150-line copied table;
// TestMatchesMathRand would catch either going wrong.
func recoverCooked() {
	const probe = 1
	var lehmer Source
	lehmer.Seed(probe)
	std := rand.NewSource(probe).(rand.Source64)
	var out, ring [ringLen]uint64
	for k := range out {
		out[k] = std.Uint64()
	}
	// Output k overwrites ring[feed] with ring[feed]+ring[tap], feed
	// counting down from ringLen-ringTap-1 and tap from ringLen-1, both
	// modulo ringLen. From k = ringTap on the tap word is itself output
	// k-ringTap; before that it is a seeded word the first loop finds.
	const feed0 = ringLen - ringTap - 1
	for k := ringTap; k < ringLen; k++ {
		ring[(feed0-k+ringLen)%ringLen] = out[k] - out[k-ringTap]
	}
	for k := 0; k < ringTap; k++ {
		ring[feed0-k] = out[k] - ring[ringLen-1-k]
	}
	for i := range cooked {
		cooked[i] = ring[i] ^ uint64(lehmer.vec[i])
	}
}

// Source is a rand.Source64 whose stream for a seed is bit for bit that
// of rand.NewSource(seed). Like the library's, it is not safe for
// concurrent use.
type Source struct {
	tap, feed int
	vec       [ringLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = ringLen - ringTap

	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &powers[i]
		u := mulmod(uint64(p[0]), x)<<40 ^ mulmod(uint64(p[1]), x)<<20 ^ mulmod(uint64(p[2]), x)
		s.vec[i] = int64(u ^ cooked[i])
	}
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 advances the ring one step.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += ringLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += ringLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
