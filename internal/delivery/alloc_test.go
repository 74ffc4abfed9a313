//go:build !race

// The race detector's instrumentation allocates (and makes sync.Pool
// drop items at random), so the exact allocation pin only runs in
// non-race builds, like cyclesim's and swarm's.

package delivery

import "testing"

// TestRunAllocFree pins a steady-state download at 0 allocations: the
// generator, peers and chunks all come back from the pool, the default
// capacity distribution is shared, and Result is a value. A sweep is
// millions of these. A MirrorOnly download leaves the pooled generator
// unseeded and unread; it must not allocate one lazily either.
func TestRunAllocFree(t *testing.T) {
	for _, c := range []struct {
		name   string
		racing Racing
		stress bool
	}{
		{"nominal", RaceWithFallback, false},
		{"stress", RaceWithFallback, true},
		{"mirror-only", RaceMirrorOnly, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := honest()
			s.Racing = c.racing
			s.Scenario = ScenarioSybil // identity churn re-rolls peers mid-run
			opt := tinyOpts()
			opt.Stress = c.stress
			if _, err := Run(s, opt); err != nil { // warm the pool
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(200, func() {
				opt.Seed++
				if _, err := Run(s, opt); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("Run allocates %v objects per download in steady state, want 0", avg)
			}
		})
	}
}
