package repro

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

func TestFacadeProtocols(t *testing.T) {
	ps := Protocols()
	if len(ps) != 3270 {
		t.Fatalf("space size = %d, want 3270", len(ps))
	}
	named := Named()
	if _, ok := named["Birds"]; !ok {
		t.Error("Birds missing from Named()")
	}
}

func TestFacadePRA(t *testing.T) {
	cfg := QuickConfig()
	cfg.Peers, cfg.Rounds, cfg.Opponents, cfg.PerfRuns = 12, 40, 4, 1
	res, err := RunPRA([]Protocol{Named()["BitTorrent"], Named()["Freerider"]}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perf := res.Scores.Measure("performance")
	if len(perf) != 2 {
		t.Fatal("scores missing")
	}
	if perf[1] >= perf[0] {
		t.Error("freerider should underperform BitTorrent")
	}
}

func TestFacadeSwarm(t *testing.T) {
	cfg := DefaultSwarm()
	cfg.FileKiB, cfg.PieceKiB = 512, 128
	pts, err := SwarmEncounter(Birds, BT, []float64{0.5}, 8, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].CountA != 4 {
		t.Fatalf("points = %+v", pts)
	}
	if PaperConfig().Peers != 50 {
		t.Error("paper config wrong")
	}
}

func TestFacadeGenericSweep(t *testing.T) {
	if len(Domains()) < 2 {
		t.Fatalf("Domains() = %d domains, want at least swarming and gossip", len(Domains()))
	}
	d, err := DomainByName("gossip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Peers: 6, Rounds: 20, PerfRuns: 1, EncounterRuns: 1, Opponents: 2, Seed: 3}
	pts := d.Space().Enumerate()[:8]
	dir := t.TempDir()
	scores, err := RunSweepContext(context.Background(), d, pts, cfg, SweepOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range d.Measures() {
		if len(scores.Measure(m)) != len(pts) {
			t.Fatalf("measure %s has %d values, want %d", m, len(scores.Measure(m)), len(pts))
		}
	}
	reloaded, err := LoadSweep(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scores, reloaded) {
		t.Fatal("LoadSweep does not match the live sweep")
	}
}

// TestFacadeGrid runs a whole grid through the facade: ServeGrid hosts
// the coordinator on a loopback port, two GridSweep workers join over
// HTTP, and both sides must return scores byte-identical to a plain
// RunSweepContext of the same sweep.
func TestFacadeGrid(t *testing.T) {
	d, err := DomainByName("gossip")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Peers: 6, Rounds: 20, PerfRuns: 1, EncounterRuns: 1, Opponents: 2, Seed: 3}
	pts := d.Space().Enumerate()[:8]
	ctx := context.Background()
	want, err := RunSweepContext(ctx, d, pts, cfg, SweepOptions{Chunk: 2})
	if err != nil {
		t.Fatal(err)
	}

	addrC := make(chan string, 1)
	type result struct {
		scores *Scores
		err    error
	}
	served := make(chan result, 1)
	go func() {
		s, err := ServeGrid(ctx, "127.0.0.1:0", d, pts, cfg, GridOptions{
			Chunk: 2, OnListen: func(addr string) { addrC <- addr },
		})
		served <- result{s, err}
	}()
	url := "http://" + <-addrC

	workerDone := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			s, err := GridSweep(ctx, url, 2)
			workerDone <- result{s, err}
		}()
	}
	wantJSON, _ := json.Marshal(want)
	for i := 0; i < 2; i++ {
		r := <-workerDone
		if r.err != nil {
			t.Fatalf("GridSweep: %v", r.err)
		}
		if got, _ := json.Marshal(r.scores); string(got) != string(wantJSON) {
			t.Fatal("GridSweep scores are not byte-identical to RunSweep")
		}
	}
	r := <-served
	if r.err != nil {
		t.Fatalf("ServeGrid: %v", r.err)
	}
	if got, _ := json.Marshal(r.scores); string(got) != string(wantJSON) {
		t.Fatal("ServeGrid scores are not byte-identical to RunSweep")
	}
}
