package cyclesim

import (
	"testing"

	"repro/internal/design"
)

// BenchmarkCyclesimRound measures one steady-state simulation round at
// paper scale (50 BitTorrent peers) — the innermost unit of the PRA
// quantification's 107-million-run workload. Steady state means
// history and scratch buffers are warm; allocation here must be zero
// (pinned by TestRoundLoopAllocFree).
func BenchmarkCyclesimRound(b *testing.B) {
	w := newWorld(allocSpecs(design.BitTorrent(), 50), 1)
	for r := 0; r < 100; r++ {
		w.round = int32(r)
		w.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.round = int32(100 + i)
		w.step()
	}
}

// BenchmarkCyclesimRunPooled measures a whole paper-scale run on a
// warm pool: what one tournament encounter costs the sweep engine.
func BenchmarkCyclesimRunPooled(b *testing.B) {
	specs := allocSpecs(design.BitTorrent(), 50)
	opt := Options{Rounds: 500, Seed: 0}
	if _, err := Run(specs, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i)
		if _, err := Run(specs, opt); err != nil {
			b.Fatal(err)
		}
	}
}
