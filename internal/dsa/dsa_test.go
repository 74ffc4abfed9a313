package dsa_test

// External test package: it exercises the interface through the real
// domain implementations (pra registers "swarming", gossip registers
// "gossip", delivery registers "delivery"), which the dsa package
// itself must not import. TestDomainContracts below runs against every
// registered domain, so each import here buys the whole contract suite
// for that domain.

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/pra"
)

func TestRegistryHasAllDomains(t *testing.T) {
	names := dsa.Names()
	for _, want := range []string{delivery.DomainName, gossip.DomainName, pra.DomainName} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("domain %q not registered (have %v)", want, names)
		}
	}
	// Names, Registered and Get agree on the same sorted universe.
	reg := dsa.Registered()
	if len(reg) != len(names) {
		t.Fatalf("Registered() has %d domains, Names() %d", len(reg), len(names))
	}
	for i, d := range reg {
		if d.Name() != names[i] {
			t.Errorf("Registered()[%d] = %q, Names()[%d] = %q", i, d.Name(), i, names[i])
		}
	}
	err := func() error { _, err := dsa.Get("no-such-domain"); return err }()
	if err == nil || !strings.Contains(err.Error(), "unknown domain") {
		t.Errorf("unknown domain lookup: err = %v", err)
	}
	// The error lists every registered name — the CLIs' typo UX.
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-domain error %q does not list %q", err, n)
		}
	}
}

func TestDomainContracts(t *testing.T) {
	for _, d := range append(dsa.Registered(), newToyDomain()) {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			pts := d.Space().Enumerate()
			if len(pts) == 0 {
				t.Fatal("empty space")
			}
			if len(d.Measures()) == 0 {
				t.Fatal("no measures")
			}
			// The point↔ID codec must round-trip and IDs must be
			// unique — they are the checkpoint keys.
			seen := map[int]bool{}
			for _, p := range pts {
				id, err := d.PointID(p)
				if err != nil {
					t.Fatal(err)
				}
				if seen[id] {
					t.Fatalf("duplicate point ID %d", id)
				}
				seen[id] = true
				back, err := d.PointByID(id)
				if err != nil {
					t.Fatal(err)
				}
				if !p.Equal(back) {
					t.Fatalf("codec round-trip: %v → %d → %v", p, id, back)
				}
			}
			if _, err := d.DefaultConfig("quick"); err != nil {
				t.Fatalf("quick preset: %v", err)
			}
			if _, err := d.DefaultConfig("paper"); err != nil {
				t.Fatalf("paper preset: %v", err)
			}
			if _, err := d.DefaultConfig("bogus"); err == nil {
				t.Fatal("bogus preset accepted")
			}
		})
	}
}

// TestScoreSliceConcatenation pins the contract the job engine relies
// on: scoring a point set in slices equals scoring it whole.
func TestScoreSliceConcatenation(t *testing.T) {
	cfg := dsa.Config{Peers: 8, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 11}
	for _, tc := range []struct {
		d      dsa.Domain
		stride int
	}{{gossip.Domain(), 40}, {newToyDomain(), 1}} {
		t.Run(tc.d.Name(), func(t *testing.T) {
			d, pts := tc.d, dsa.StridePoints(tc.d, tc.stride)
			opponents := d.SampleOpponents(cfg)
			for _, m := range d.Measures() {
				whole, err := d.ScoreSlice(m, pts, opponents, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var pieced []float64
				for lo := 0; lo < len(pts); lo += 2 {
					hi := min(lo+2, len(pts))
					vals, err := d.ScoreSlice(m, pts[lo:hi], opponents, cfg)
					if err != nil {
						t.Fatal(err)
					}
					pieced = append(pieced, vals...)
				}
				if !reflect.DeepEqual(whole, pieced) {
					t.Fatalf("measure %s: sliced scoring diverged from whole-set scoring", m)
				}
			}
		})
	}
}

func TestSamplePanel(t *testing.T) {
	all := gossip.Domain().Space().Enumerate()
	panel := dsa.SamplePanel(all, 10, 42)
	if len(panel) != 10 {
		t.Fatalf("panel size = %d, want 10", len(panel))
	}
	if !reflect.DeepEqual(panel, dsa.SamplePanel(all, 10, 42)) {
		t.Fatal("panel is not deterministic")
	}
	if got := dsa.SamplePanel(all, 0, 42); len(got) != len(all) {
		t.Fatal("0 opponents should mean the whole set")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := gossip.Domain()
	cfg := dsa.Config{Peers: 8, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 3}
	all := d.Space().Enumerate()
	pts := all[:6]
	opponents := d.SampleOpponents(cfg)
	raw := map[string][]float64{}
	for _, m := range d.Measures() {
		vals, err := d.ScoreSlice(m, pts, opponents, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw[m] = vals
	}
	scores, err := d.Assemble(pts, raw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dsa.WriteCSV(&buf, d, scores); err != nil {
		t.Fatal(err)
	}
	back, err := dsa.ReadCSV(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(pts) {
		t.Fatalf("round-trip lost points: %d of %d", len(back.Points), len(pts))
	}
	for i, p := range pts {
		if !p.Equal(back.Points[i]) {
			t.Fatalf("point %d changed: %v → %v", i, p, back.Points[i])
		}
	}
	for _, m := range d.Measures() {
		for i := range pts {
			if diff := scores.Values[m][i] - back.Values[m][i]; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("measure %s value %d drifted: %v → %v", m, i, scores.Values[m][i], back.Values[m][i])
			}
		}
	}
}

// TestExplorersOnGossipDomain: the Section 7 explorers run on any
// domain against a measure-weight blend.
func TestExplorersOnGossipDomain(t *testing.T) {
	d := gossip.Domain()
	cfg := dsa.Config{Peers: 8, Rounds: 30, PerfRuns: 1, EncounterRuns: 1, Opponents: 3, Seed: 5}
	w := job.Weights{gossip.MeasureCoverage: 1}
	best, calls, err := job.HillClimb(context.Background(), d, w, cfg, job.HillClimbConfig{Restarts: 2, MaxSteps: 10, Seed: 9}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls <= 0 || calls >= d.Space().Size() {
		t.Fatalf("hill climb made %d objective calls (space %d)", calls, d.Space().Size())
	}
	if !d.Space().Valid(best.Point) {
		t.Fatalf("hill climb returned invalid point %v", best.Point)
	}
	again, _, err := job.HillClimb(context.Background(), d, w, cfg, job.HillClimbConfig{Restarts: 2, MaxSteps: 10, Seed: 9}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(best, again) {
		t.Fatal("hill climb is not deterministic")
	}

	if _, _, err := job.HillClimb(context.Background(), d, job.Weights{"bogus": 1}, cfg, job.HillClimbConfig{Restarts: 1, MaxSteps: 1, Seed: 1}, nil, nil); err == nil {
		t.Fatal("unknown measure weight accepted")
	}
}

// TestConfigValidate pins the scale knobs every domain's sweep is
// checked against before any simulation (the churn range has its own
// test below).
func TestConfigValidate(t *testing.T) {
	ok := dsa.Config{Peers: 10, Rounds: 10, PerfRuns: 1, EncounterRuns: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := map[string]func(*dsa.Config){
		"one peer":           func(c *dsa.Config) { c.Peers = 1 },
		"no rounds":          func(c *dsa.Config) { c.Rounds = 0 },
		"no perf runs":       func(c *dsa.Config) { c.PerfRuns = 0 },
		"no encounter runs":  func(c *dsa.Config) { c.EncounterRuns = 0 },
		"negative opponents": func(c *dsa.Config) { c.Opponents = -1 },
	}
	for name, mutate := range bad {
		c := ok
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func TestConfigValidateChurnRange(t *testing.T) {
	ok := dsa.Config{Peers: 4, Rounds: 5, PerfRuns: 1, EncounterRuns: 1}
	for _, churn := range []float64{0, 0.01, 0.5, 1} {
		c := ok
		c.Churn = churn
		if err := c.Validate(); err != nil {
			t.Errorf("churn %v rejected: %v", churn, err)
		}
	}
	for _, churn := range []float64{-0.01, 1.01, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := ok
		c.Churn = churn
		if err := c.Validate(); err == nil {
			t.Errorf("churn %v accepted, want error", churn)
		}
	}
}
