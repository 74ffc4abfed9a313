package gorand

import (
	"math"
	"math/rand"
	"testing"
)

// draws is past two full turns of the 607-word ring, so every word has
// been a feed and a tap and been rewritten from rewritten words.
const draws = 1500

// matchStream fails if got and the library's source for seed disagree
// anywhere in the first n Uint64 draws.
func matchStream(t *testing.T, got *Source, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < n; k++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d, draw %d: got %#x, math/rand gives %#x", seed, k, g, w)
		}
	}
}

func TestMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, 2, 89482311, m, -m, m - 1, m + 1, 1 - m, -m - 1,
		// Multiples of 2³¹−1 reduce to 0 and take the 89482311 branch.
		2 * m, -2 * m, 12345 * m, m * m,
		1 << 31, -(1 << 31), 1<<32 + 5, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	pick := rand.New(rand.NewSource(20261002))
	for len(seeds) < 2022 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		matchStream(t, New(seed), seed, draws)
	}
}

// TestReseedInPlace pins what a pooled simulator relies on: Seed on a
// used source leaves nothing of the old stream behind, directly and
// through rand.Rand.Seed.
func TestReseedInPlace(t *testing.T) {
	src := New(5)
	for k := 0; k < 1000; k++ {
		src.Uint64()
	}
	for _, seed := range []int64{5, 0, -9, math.MaxInt64} {
		src.Seed(seed)
		matchStream(t, src, seed, draws)
	}

	got := rand.New(New(3))
	got.Float64()
	got.Seed(77)
	want := rand.New(rand.NewSource(77))
	for k := 0; k < draws; k++ {
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("after Rand.Seed, draw %d: got %v, want %v", k, g, w)
		}
	}
}

// TestThroughRand draws the distributions the simulators use through
// rand.New over both sources, interleaved so each call starts from
// whatever state the previous kind of call left.
func TestThroughRand(t *testing.T) {
	for seed := int64(-3); seed <= 3; seed++ {
		got, want := rand.New(New(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 400; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, round %d: Int63 %d != %d", seed, k, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, round %d: Float64 %v != %v", seed, k, g, w)
			}
			n := k*37 + 1
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d, round %d: Intn(%d) %d != %d", seed, k, n, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, round %d: Uint64 %d != %d", seed, k, g, w)
			}
			a, b := make([]int, 9), make([]int, 9)
			for i := range a {
				a[i], b[i] = i, i
			}
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d, round %d: Shuffle %v != %v", seed, k, a, b)
				}
			}
		}
	}
}

func TestSeedAllocatesNothing(t *testing.T) {
	src := New(1)
	seed := int64(2)
	if avg := testing.AllocsPerRun(100, func() {
		src.Seed(seed)
		seed++
	}); avg != 0 {
		t.Fatalf("Seed allocates %v objects, want 0", avg)
	}
}

func FuzzSeedMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(1<<31-1), uint16(607))
	f.Add(int64(math.MinInt64), uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		matchStream(t, New(seed), seed, int(n))
	})
}

var sink uint64

func BenchmarkSeed(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
	sink = src.Uint64()
}

func BenchmarkSeedMathRand(b *testing.B) {
	src := rand.NewSource(1)
	for i := 0; i < b.N; i++ {
		src.Seed(int64(i))
	}
	sink = uint64(src.Int63())
}
