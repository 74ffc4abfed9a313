package main

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/pra"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Name: "sweep"},
		{ID: 2, Parent: 1, Start: 10, End: 90, Name: "exec"},
		// Two pool goroutines under exec, overlapping in [30,50).
		{ID: 3, Parent: 2, Start: 10, End: 50, Layer: layerSim},
		{ID: 4, Parent: 2, Start: 30, End: 70, Layer: layerSim},
		// A child that sticks out of its parent is clipped to it.
		{ID: 5, Parent: 2, Start: 80, End: 120, Layer: layerCheckpoint},
		// A child wholly inside a sibling adds nothing to the cover.
		{ID: 6, Parent: 2, Start: 35, End: 45, Layer: layerCache},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 20,                      // 100 - exec's 80
		2: 10,                      // 80 - union [10,70) - clipped [80,90)
		3: 40, 4: 40, 5: 40, 6: 10, // leaves keep their whole duration
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	shares := layerShares(spans, 2, 100)
	for layer, want := range map[string]float64{
		layerSim: 0.40, layerCheckpoint: 0.20, layerCache: 0.05, "untraced": 0.35,
	} {
		if got := shares[layer]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, got, want)
		}
	}
}

// The decorator must not change cache keys: a traced sweep has to hit
// and fill the same entries an untraced one does.
func TestTracedDomainKeepsCacheKeys(t *testing.T) {
	for _, d := range []dsa.Domain{pra.Domain(), gossip.Domain(), delivery.Domain()} {
		cfg, err := d.DefaultConfig("quick")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Opponents = min(cfg.Opponents, 6)
		wrapped := tracedDomain{Domain: d, t: newTracer()}
		plain, err := dsa.NewScoreKeyer(d, d.SampleOpponents(cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := dsa.NewScoreKeyer(wrapped, wrapped.SampleOpponents(cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range d.Measures() {
			for _, p := range dsa.StridePoints(d, 97) {
				id, err := wrapped.PointID(p)
				if err != nil {
					t.Fatal(err)
				}
				if plain.Key(m, id) != traced.Key(m, id) {
					t.Fatalf("%s/%s point %d: traced domain derives another cache key", d.Name(), m, id)
				}
			}
		}
		if wrapped.Name() != d.Name() {
			t.Errorf("traced domain is named %q, want %q", wrapped.Name(), d.Name())
		}
	}
}

// versioned is a domain with a score version, which the decorator must pass on.
type versioned struct{ dsa.Domain }

func (versioned) ScoreVersion() int { return 7 }

func TestTracedDomainForwardsScoreVersion(t *testing.T) {
	tr := newTracer()
	if got := (tracedDomain{Domain: versioned{gossip.Domain()}, t: tr}).ScoreVersion(); got != 7 {
		t.Errorf("ScoreVersion through the decorator = %d, want 7", got)
	}
	if got := (tracedDomain{Domain: gossip.Domain(), t: tr}).ScoreVersion(); got != 0 {
		t.Errorf("ScoreVersion of an unversioned domain = %d, want 0", got)
	}
}

type markedWriter struct{ io.Writer }

func TestSeamCounterRestoresPreviousSeam(t *testing.T) {
	restoreOuter := job.SetWriterSeam(func(_ string, w io.Writer) io.Writer { return markedWriter{w} })
	defer restoreOuter()

	c := newSeamCounter()
	restore := c.install()
	var buf bytes.Buffer
	if _, err := job.WrapWriter("/x/coordinator.wal", &buf).Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	job.WrapWriter("/x/task-echo-00000-00008.json", &buf).Write([]byte("defgh"))
	if calls, n := c.snapshot(fileWAL); calls != 1 || n != 3 {
		t.Errorf("wal writes counted as %d calls, %d bytes; want 1, 3", calls, n)
	}
	if calls, n := c.snapshot(fileWAL, fileResult, fileManifest); calls != 2 || n != 8 {
		t.Errorf("all writes counted as %d calls, %d bytes; want 2, 8", calls, n)
	}
	restore()
	if _, ok := job.WrapWriter("/x/coordinator.wal", &buf).(markedWriter); !ok {
		t.Error("restore did not bring back the seam that was installed before the counter")
	}
	restoreOuter()
	if w := job.WrapWriter("/x/coordinator.wal", &buf); w != io.Writer(&buf) {
		t.Error("seam still installed after every restore")
	}
}

func TestNullDomainCodec(t *testing.T) {
	d := theNullDomain
	pts := d.Space().Enumerate()
	if len(pts) != nullSide*nullSide*nullSide {
		t.Fatalf("null space has %d points", len(pts))
	}
	seen := map[int]bool{}
	for _, p := range pts {
		id, err := d.PointID(p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.PointByID(id)
		if err != nil || !back.Equal(p) || seen[id] {
			t.Fatalf("point %v -> id %d -> %v (err %v, seen %v)", p, id, back, err, seen[id])
		}
		seen[id] = true
	}
	// Slices recombine: the score is a function of point identity alone.
	whole, err := d.ScoreSlice(nullMeasure, pts[:16], nil, dsa.Config{})
	if err != nil {
		t.Fatal(err)
	}
	part, _ := d.ScoreSlice(nullMeasure, pts[8:16], nil, dsa.Config{})
	for i := range part {
		if part[i] != whole[8+i] {
			t.Fatalf("score of point %d depends on its slice", 8+i)
		}
	}
	if got, err := dsa.Get(nullDomainName); err != nil || got.Name() != nullDomainName {
		t.Errorf("null domain is not registered: %v", err)
	}
}
