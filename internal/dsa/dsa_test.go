package dsa_test

// External test package: it exercises the interface through the real
// domain implementations (pra registers "swarming", gossip registers
// "gossip", delivery registers "delivery"), which the dsa package
// itself must not import. The laws every domain keeps are the
// conformance suite's (conformance_test.go).

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
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
