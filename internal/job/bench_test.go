package job

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/pra"
)

// benchPoints strides the swarming space down to a bench-sized subset.
func benchPoints(b *testing.B) []core.Point {
	b.Helper()
	all := pra.Domain().Space().Enumerate()
	var pts []core.Point
	for i := 0; i < len(all); i += 100 {
		pts = append(pts, all[i])
	}
	return pts
}

func benchCfg() dsa.Config {
	return dsa.Config{Peers: 10, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}
}

// benchExecTasks is the shared body of the traced/untraced pair below.
// Real pra simulation per task keeps per-op cost in simulation, where
// it is in production — so the pair's delta isolates what tracing
// adds, and scripts/trace_smoke.sh pins that delta under 5%.
func benchExecTasks(b *testing.B, rec *obs.Recorder) {
	ctx := context.Background()
	spec := Spec{Domain: pra.Domain(), Points: benchPoints(b), Cfg: benchCfg(), Chunk: 8}
	tasks := spec.Tasks()
	sink := func(Task, []float64, time.Duration) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := ExecOptions{Workers: 4, Trace: rec}
		if err := ExecTasks(ctx, spec, tasks, opts, sink); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecTasks(b *testing.B) {
	benchExecTasks(b, nil)
}

func BenchmarkExecTasksTraced(b *testing.B) {
	rec, err := obs.OpenDir(b.TempDir(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	benchExecTasks(b, rec)
}

// benchCheckpoint opens a checkpoint for the Record benchmarks and
// returns a generator of 8-value tasks (Record does not look a task up
// in the spec, so the benchmark can mint as many as b.N asks for).
func benchCheckpoint(b *testing.B) (*Checkpoint, func(i int) (Task, []float64)) {
	b.Helper()
	spec := Spec{Domain: pra.Domain(), Points: benchPoints(b), Cfg: benchCfg(), Chunk: 8}
	cp, err := OpenCheckpoint(b.TempDir(), spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cp.Close() })
	values := []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
	return cp, func(i int) (Task, []float64) {
		return Task{Measure: "performance", Lo: 8 * i, Hi: 8*i + 8}, values
	}
}

// BenchmarkCheckpointRecord is one caller: every Record pays its own
// fsync.
func BenchmarkCheckpointRecord(b *testing.B) {
	cp, task := benchCheckpoint(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, vals := task(i)
		if err := cp.Record(t, vals, time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRecordParallel is 8 callers per CPU sharing the
// manifest — the grid coordinator's ingest shape. ns/op against the
// serial benchmark is the group-commit effect: Records per fsync.
func BenchmarkCheckpointRecordParallel(b *testing.B) {
	cp, task := benchCheckpoint(b)
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			t, vals := task(int(next.Add(1)))
			if err := cp.Record(t, vals, time.Millisecond); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// benchExploreCfg is the explorer workload of the cache benchmarks:
// small enough to iterate, big enough that real simulation dominates a
// cold run.
func benchExploreCfg() dsa.Config {
	return dsa.Config{Peers: 10, Rounds: 60, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 1}
}

func benchExplore(b *testing.B, store *cache.Store) {
	b.Helper()
	var sc dsa.ScoreCache
	if store != nil {
		sc = store
	}
	_, _, err := HillClimb(context.Background(), gossip.Domain(), Weights{gossip.MeasureCoverage: 1},
		benchExploreCfg(), HillClimbConfig{Restarts: 2, MaxSteps: 15, Seed: 3}, sc, nil)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExplorerColdCache is the baseline of the score cache's
// headline claim: each iteration is a full Section 7 hill climb with
// every score simulated (no cache). Compare against
// BenchmarkExplorerWarmCache — the warm/cold ns/op ratio is the
// measured speedup (CI asserts >= 5x in scripts/cache_smoke.sh).
func BenchmarkExplorerColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchExplore(b, nil)
	}
}

// BenchmarkExplorerWarmCache runs the identical hill climb against a
// pre-warmed content-addressed score cache: every evaluation is a key
// derivation plus a map hit, no simulation at all. Results are
// byte-identical to the cold run (asserted by the dsa and job parity
// tests); only the cost changes.
func BenchmarkExplorerWarmCache(b *testing.B) {
	store, err := cache.Open(cache.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	benchExplore(b, store) // warm every score the search will touch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchExplore(b, store)
	}
}
