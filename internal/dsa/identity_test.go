package dsa_test

import (
	"fmt"
	"testing"

	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/pra"
)

// quick is d's quick preset.
func quick(t *testing.T, d dsa.Domain) dsa.Config {
	t.Helper()
	cfg, err := d.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestScoreKeyerGolden pins the two identities that persisted state hangs
// off, as bytes: a cache key (every -cache-dir is addressed by them) and a
// task ID (every checkpoint manifest and coordinator WAL is). The values
// were recorded before ScoreKeyer.Key and Task.ID stopped going through
// hash.Hash and fmt, so a rewrite of either that would cold every cache or
// orphan every checkpoint fails here instead of passing as a speed-up.
func TestScoreKeyerGolden(t *testing.T) {
	toy := newToyDomain()
	fake := newFakeDomain(t)
	for _, c := range []struct {
		d       dsa.Domain
		cfg     dsa.Config
		measure string
		id      int
		want    string
	}{
		{toy, quick(t, toy), toyRobustness, 7, "88678eb3be7c75d4b618b08aed9ad354b22abde2c128115c900f3bdefe1a6d3f"},
		{fake, fakeCfg(), "beta", 11, "4813d89f6311e5702d71b6596f673aedcd8b0cd71f0a0274a3904da516622db5"},
		// One row per registered domain: quick preset, first measure.
		{pra.Domain(), quick(t, pra.Domain()), "performance", 42, "048f5f8809f830aa49c8e7955dd5f54624f2461c98ddcc757d7605bff2b2a60e"},
		{gossip.Domain(), quick(t, gossip.Domain()), "coverage", 5, "c1d276a5e1710fa46893c5eeb0548f8b1771a8796840e5078b5332f61172087f"},
		{delivery.Domain(), quick(t, delivery.Domain()), "robustness", 3, "67142e9516002659ed46b1c5f8dd247011ee4e53ec916b39e7dd4c346c93a057"},
	} {
		k, err := dsa.NewScoreKeyer(c.d, c.d.SampleOpponents(c.cfg), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Key(c.measure, c.id).String(); got != c.want {
			t.Errorf("%s: Key(%q, %d) = %s, recorded %s", c.d.Name(), c.measure, c.id, got, c.want)
		}
	}

	for _, c := range []struct {
		task job.Task
		want string
	}{
		{job.Task{Measure: "alpha", Lo: 0, Hi: 32}, "alpha-00000-00032"},
		{job.Task{Measure: "beta", Lo: 99968, Hi: 100000}, "beta-99968-100000"},
		{job.Task{Measure: "yield", Lo: 100000, Hi: 123456}, "yield-100000-123456"},
		{job.Task{Measure: "raw_x", Lo: 1234567, Hi: 1234568}, "raw_x-1234567-1234568"},
	} {
		if got := c.task.ID(); got != c.want {
			t.Errorf("Task%+v.ID() = %q, recorded %q", c.task, got, c.want)
		}
	}
	// What no sweep produces but a decoded lease or manifest line could
	// carry still reads as %05d did.
	for _, v := range []int{-1, -42, -99999, -100000, 7, 99999} {
		task := job.Task{Measure: "m", Lo: v, Hi: -v}
		if got, want := task.ID(), fmt.Sprintf("%s-%05d-%05d", task.Measure, task.Lo, task.Hi); got != want {
			t.Errorf("Task%+v.ID() = %q, fmt writes %q", task, got, want)
		}
	}
}
