package delivery

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
)

// deliverySweepBench is the input of the joint/per-measure pair below:
// all four measures over the whole delivery space (576 points — enough
// work per iteration that perf_smoke's 3x runs read steadily).
func deliverySweepBench() (dsa.Domain, []core.Point, dsa.Config) {
	d := Domain()
	return d, d.Space().Enumerate(), dsa.Config{Peers: 8, Rounds: 300, PerfRuns: 3, EncounterRuns: 1, Seed: 1, Workers: 1}
}

// BenchmarkDeliverySweepJoint scores the four delivery measures in one
// dsa.ScoreSlices call — what job.ExecTasks does with a chunk's tasks:
// each point's nominal downloads run once and its stress downloads
// once, 2·PerfRuns per point.
func BenchmarkDeliverySweepJoint(b *testing.B) {
	d, pts, cfg := deliverySweepBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsa.ScoreSlices(d, d.Measures(), pts, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeliverySweepPerMeasure scores the same measures over the
// same points one ScoreSlice call at a time, 5·PerfRuns downloads per
// point. scripts/perf_smoke.sh holds the pair to a floor, so the
// sharing cannot quietly stop happening.
func BenchmarkDeliverySweepPerMeasure(b *testing.B) {
	d, pts, cfg := deliverySweepBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range d.Measures() {
			if _, err := d.ScoreSlice(m, pts, nil, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}
