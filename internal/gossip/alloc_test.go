//go:build !race

// The race detector's instrumentation allocates, so this exact count
// only runs in non-race builds.

package gossip

import "testing"

// TestRunAllocs pins a warm Run at one allocation, its Result.Utility:
// the state and its generator come back from the pool.
func TestRunAllocs(t *testing.T) {
	pts := Space().Enumerate()
	protos := make([]Protocol, 40)
	for i := range protos {
		protos[i], _ = FromPoint(pts[i*5%len(pts)])
	}
	opt := DefaultOptions()
	if _, err := Run(protos, opt); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		opt.Seed++
		if _, err := Run(protos, opt); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("warm Run allocates %v objects, want 1 (Result.Utility)", avg)
	}
}
