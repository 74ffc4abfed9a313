package dsa_test

// FormatScore's finite cells are strconv.FormatFloat(v, 'f', 6, 64) by
// specification; below 2^43 it computes them in integer arithmetic on
// the float's exact binary value. This file holds the two against each
// other: a fuzz target over bit patterns, seeded where the layout
// changes (powers of ten and their neighbours, the edges of the integer
// path's range and of its 128-bit shift) and where the rounding is
// delicate (exact x.xxxxxx5 ties, carries into a new digit).

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dsa"
)

func checkFormatScore(t *testing.T, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return // canonical tokens, pinned by TestCSVNonFiniteEncoding
	}
	if got, want := dsa.FormatScore(v), strconv.FormatFloat(v, 'f', 6, 64); got != want {
		t.Fatalf("FormatScore(%v = %#x) = %q, strconv writes %q", v, math.Float64bits(v), got, want)
	}
}

// formatScoreSeeds are the values the fast path is most likely to get
// wrong.
func formatScoreSeeds() []float64 {
	seeds := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1050, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64,
		0.5, 1, -1, 0.123456, 0.1234565, 0.9999995, 0.99999949, 9.9999996, 99.9999995, 999999.9999995,
		0.0000005, 0.00000049, 0.00000051, 4.9e-7, 5.1e-7, 9.5e-7,
		math.Nextafter(0x1p-1022, 0), // the largest subnormal
	}
	// The integer path's edges: 2^43, where strconv takes over; 2^42, its
	// shortest shift (10); the binades whose shift is 63–65, where the
	// remainder crosses the 64-bit word; and those of shift 73 and 74,
	// where the truncated quotient is 0: a 73 rounds to 0 or 0.000001, a
	// 74 always to 0.
	for _, p := range []float64{0x1p43, 0x1p42, 0x1p-11, 0x1p-12, 0x1p-13, 0x1p-20, 0x1p-21, 0x1p-22} {
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
			seeds = append(seeds, v, -v)
		}
	}
	// Every power of ten from 1e-9 to 1e18, with both neighbours.
	for e := -9; e <= 18; e++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), -p)
	}
	// Exact ties: an odd multiple of 1/128 has seven decimals ending in 5,
	// so the sixth rounds half to even; their neighbours must not.
	for _, m := range []float64{1, 3, 5, 127, 129, 255, 12801, 1280001, 128000001, 12800000001} {
		tie := m / 128
		seeds = append(seeds, tie, -tie, math.Nextafter(tie, 0), math.Nextafter(tie, math.Inf(1)))
	}
	return seeds
}

func FuzzFormatScore(f *testing.F) {
	for _, v := range formatScoreSeeds() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFormatScore(t, math.Float64frombits(bits))
	})
}

// TestFormatScoreMatchesStrconv runs the differential on every plain
// `go test`: random bit patterns, and random values of the shapes scores
// take (fractions, small counts, times), which bit patterns rarely hit.
func TestFormatScoreMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 50000; i++ {
		checkFormatScore(t, math.Float64frombits(rng.Uint64()))
		checkFormatScore(t, rng.Float64())
		checkFormatScore(t, -rng.Float64()*math.Pow(10, float64(rng.Intn(30)-12)))
		// Seven decimals ending in 5: as close to a tie as decimal input gets.
		checkFormatScore(t, (float64(rng.Intn(1e7))*10+5)/1e8*math.Pow(10, float64(rng.Intn(8))))
	}
}
