package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/swarm"
)

// TestFidelityLedger measures the ledger at unit-test scale over two
// seeds: a row per claim in the claim table's order, a value per seed
// (the seed-free analytic row one), the interval spanning the values
// and Holds read off the tolerance; a second run equals the first apart
// from cpu_s. Check then passes the ledger against itself and fails a
// moved interval, a row that stopped holding and a missing row, and
// compares nothing measured at another scale.
func TestFidelityLedger(t *testing.T) {
	swarmCfg := swarm.Default()
	swarmCfg.FileKiB = 1024
	swarmCfg.PieceKiB = 128
	sc := LedgerScale{Label: "test", Protocols: subset(150), Cfg: tinyCfg(), Swarm: swarmCfg, Leechers: 10, Runs: 1, Seeds: []int64{1, 2}}
	led, err := Fidelity(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Rows) != len(claims) {
		t.Fatalf("%d rows, want one per claim (%d)", len(led.Rows), len(claims))
	}
	for i, r := range led.Rows {
		if r.Claim != claims[i] {
			t.Errorf("row %d is %q, want %q", i, r.Name, claims[i].Name)
		}
		want := len(sc.Seeds)
		if r.Name == "nash" {
			want = 1
		}
		if len(r.Values) != want {
			t.Errorf("%s: %d values, want %d", r.Name, len(r.Values), want)
		}
		for _, v := range r.Values {
			if v < r.Interval[0] || v > r.Interval[1] {
				t.Errorf("%s: value %v outside interval %v", r.Name, v, r.Interval)
			}
		}
		inside := r.Interval[0] >= r.Paper-r.Tolerance && r.Interval[1] <= r.Paper+r.Tolerance
		if r.Holds != inside {
			t.Errorf("%s: holds = %v for interval %v, paper %v ± %v", r.Name, r.Holds, r.Interval, r.Paper, r.Tolerance)
		}
	}

	again, err := Fidelity(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutCPU(t, again), withoutCPU(t, led)) {
		t.Error("a second run measured another ledger")
	}
	if n, fails := again.Check(led); n != len(claims) || len(fails) != 0 {
		t.Errorf("ledger against itself: compared %d, failures %v", n, fails)
	}

	moved := withoutCPU(t, led)
	moved.Rows[0].Interval[1] = led.Rows[0].Interval[1] + led.Rows[0].Tolerance + 0.01
	if _, fails := moved.Check(led); len(fails) != 1 {
		t.Errorf("interval moved beyond its tolerance: failures %v, want 1", fails)
	}
	committed := withoutCPU(t, led)
	committed.Rows[1].Holds, moved.Rows[0] = true, led.Rows[0]
	moved.Rows[1].Holds = false
	if _, fails := moved.Check(committed); len(fails) != 1 {
		t.Errorf("held row stopped holding: failures %v, want 1", fails)
	}
	moved.Rows = moved.Rows[1:]
	if _, fails := moved.Check(committed); len(fails) != 2 {
		t.Errorf("committed row missing (and one stopped holding): failures %v, want 2", fails)
	}
	for i := range committed.Rows {
		committed.Rows[i].Scale = "another"
	}
	if n, fails := led.Check(committed); n != 0 || len(fails) != 0 {
		t.Errorf("ledger at another scale: compared %d, failures %v", n, fails)
	}
}

// withoutCPU deep-copies l with every cpu_s zeroed.
func withoutCPU(t *testing.T, l *Ledger) *Ledger {
	t.Helper()
	buf, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	var out Ledger
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	out.CPUSec = 0
	for i := range out.Rows {
		out.Rows[i].CPUSec = 0
	}
	return &out
}
