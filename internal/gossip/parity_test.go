package gossip

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dsa"
)

// fuzzShape decodes a fuzz input: node i runs the protocol numbered
// mix[i mod len(mix)] in Space's enumeration, over 2-70 nodes, 1-300
// rounds, 0-3 rumours a round (up to 900 rumours, fifteen bitset words)
// and expiry after 1-40 rounds.
func fuzzShape(mix []byte, size uint8, rounds uint16, rate, age uint8, seed int64) ([]Protocol, Options) {
	pts := Space().Enumerate()
	protos := make([]Protocol, 2+int(size)%69)
	for i := range protos {
		id := 0
		if len(mix) > 0 {
			id = int(mix[i%len(mix)]) % len(pts)
		}
		protos[i], _ = FromPoint(pts[id])
	}
	return protos, Options{Rounds: 1 + int(rounds)%300, RumourRate: int(rate) % 4, ExpireAge: 1 + int(age)%40, Seed: seed}
}

// matchesReference runs protos through Run and the frozen seed loop and
// compares every utility's bits.
func matchesReference(protos []Protocol, opt Options) error {
	got, err := Run(protos, opt)
	if err != nil {
		return err
	}
	want := run(protos, opt)
	for i := range want.Utility {
		if math.Float64bits(got.Utility[i]) != math.Float64bits(want.Utility[i]) {
			return fmt.Errorf("node %d (%v): utility %v, reference %v", i, protos[i], got.Utility[i], want.Utility[i])
		}
	}
	return nil
}

// FuzzRunMatchesReference holds Run to the seed simulator bit for bit.
// Each input runs twice with a run of another shape between, so a
// pooled state that leaks one run into the next shows.
func FuzzRunMatchesReference(f *testing.F) {
	all := make([]byte, 216)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all, uint8(68), uint16(299), uint8(3), uint8(4), int64(1))
	f.Add([]byte{56}, uint8(14), uint16(59), uint8(1), uint8(19), int64(2))       // Best/p1/f1/Rarest/KeepAll
	f.Add([]byte{69}, uint8(28), uint16(119), uint8(2), uint8(5), int64(3))       // Best/p1/f3/Rarest/Expire
	f.Add([]byte{114, 117}, uint8(20), uint16(150), uint8(1), uint8(3), int64(4)) // Loyal/p1/f2, Newest/KeepAll and Rarest/Expire
	f.Add([]byte{162, 4}, uint8(9), uint16(80), uint8(3), uint8(2), int64(5))     // Similarity/p1/f1/Newest against Random freeriders
	f.Add([]byte{60, 64}, uint8(38), uint16(199), uint8(1), uint8(19), int64(6))  // Best/p1/f2, Newest and freeriders
	f.Add([]byte{74, 159, 177}, uint8(0), uint16(40), uint8(2), uint8(1), int64(7))
	f.Add([]byte{}, uint8(5), uint16(10), uint8(0), uint8(0), int64(8))
	f.Fuzz(func(t *testing.T, mix []byte, size uint8, rounds uint16, rate, age uint8, seed int64) {
		protos, opt := fuzzShape(mix, size, rounds, rate, age, seed)
		between, bopt := fuzzShape(mix[min(1, len(mix)):], size/2+7, rounds/3+41, rate+1, age+13, ^seed)
		for pass, p := range [][]Protocol{protos, between, protos} {
			o := opt
			if pass == 1 {
				o = bopt
			}
			if err := matchesReference(p, o); err != nil {
				t.Fatalf("pass %d, %d nodes, %+v: %v", pass, len(p), o, err)
			}
		}
	})
}

// quickSweep runs the Quick preset's simulations for every 25th point of
// the space: PerfRuns homogeneous runs and one 50/50 encounter per panel
// opponent, each through sim.
func quickSweep(b *testing.B, sim func([]Protocol, Options) Result) {
	d := Domain()
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		b.Fatal(err)
	}
	pts, panel := dsa.StridePoints(d, 25), d.SampleOpponents(cfg)
	opt := DefaultOptions()
	opt.Nodes, opt.Rounds = cfg.Peers, cfg.Rounds
	var pops [][]Protocol
	for _, p := range pts {
		for r := 0; r < cfg.PerfRuns; r++ {
			pop, _ := population(p, p, cfg.Peers, cfg)
			pops = append(pops, pop)
		}
		for _, o := range panel {
			pop, _ := population(p, o, cfg.Peers/2, cfg)
			pops = append(pops, pop)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, pop := range pops {
			opt.Seed = int64(k)
			sim(pop, opt)
		}
	}
}

func BenchmarkQuickSweep(b *testing.B) {
	quickSweep(b, func(p []Protocol, opt Options) Result {
		res, err := Run(p, opt)
		if err != nil {
			b.Fatal(err)
		}
		return res
	})
}

func BenchmarkQuickSweepReference(b *testing.B) { quickSweep(b, run) }
