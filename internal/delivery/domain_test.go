package delivery_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
)

// tinyCfg is the smallest config that exercises every code path fast.
func tinyCfg() dsa.Config {
	return dsa.Config{Peers: 6, Rounds: 200, PerfRuns: 2, EncounterRuns: 1, Seed: 3, Workers: 1}
}

// subset strides the 576-point space down to a fast 12-point sample.
func subset(t *testing.T, d dsa.Domain) []core.Point {
	t.Helper()
	pts := dsa.StridePoints(d, 48)
	if len(pts) != 12 {
		t.Fatalf("stride subset has %d points, want 12", len(pts))
	}
	return pts
}

func TestDomainRegistered(t *testing.T) {
	d, err := dsa.Get(delivery.DomainName)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "delivery" {
		t.Fatalf("Name() = %q", d.Name())
	}
	if got := d.Space().Size(); got != 576 {
		t.Fatalf("space size %d, want 576", got)
	}
}

func TestMeasuresCanonicalOrder(t *testing.T) {
	d := delivery.Domain()
	got := d.Measures()
	want := []string{"robustness", "mean_time", "p95_time", "mirror_offload"}
	if len(got) != len(want) {
		t.Fatalf("Measures() = %v, want %v", got, want)
	}
	for i := range want {
		// The order is part of the task-enumeration contract; changing
		// it would invalidate every delivery checkpoint.
		if got[i] != want[i] {
			t.Fatalf("Measures() = %v, want %v", got, want)
		}
	}
}

func TestMeasureRanges(t *testing.T) {
	d := delivery.Domain()
	pts := subset(t, d)
	cfg := tinyCfg()
	for _, m := range []string{delivery.MeasureRobustness, delivery.MeasureMirrorOffload} {
		vals, err := d.ScoreSlice(m, pts, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s[%d] = %v outside [0,1]", m, i, v)
			}
		}
	}
	for _, m := range []string{delivery.MeasureMeanTime, delivery.MeasureP95Time} {
		vals, err := d.ScoreSlice(m, pts, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v <= 0 || v > float64(cfg.Rounds) || math.IsNaN(v) {
				t.Fatalf("%s[%d] = %v outside (0,%d]", m, i, v, cfg.Rounds)
			}
		}
	}
}

// TestScoreSliceErrors: delivery's joint scorer, called directly rather
// than through dsa.ScoreSlices, rejects an unknown measure before it runs
// anything — with a foreign point in the slice too, the measure is what
// the error names. (The errors every domain's ScoreSlice returns are a
// conformance law in internal/dsa.)
func TestScoreSliceErrors(t *testing.T) {
	joint := delivery.Domain().(dsa.JointScorer)
	_, err := joint.ScoreSlices([]string{delivery.MeasureMeanTime, "nope"}, []core.Point{{0}}, nil, tinyCfg())
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("joint call with an unknown measure: err = %v", err)
	}
}

// TestAssemble: the two completion times are inverted min-max normalised.
// (Vector lengths, separate backing arrays and the refusal of short or
// missing vectors are a conformance law in internal/dsa.)
func TestAssemble(t *testing.T) {
	d := delivery.Domain()
	pts := subset(t, d)
	cfg := tinyCfg()
	raw := map[string][]float64{}
	for _, m := range d.Measures() {
		vals, err := d.ScoreSlice(m, pts, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw[m] = vals
	}
	scores, err := d.Assemble(pts, raw)
	if err != nil {
		t.Fatal(err)
	}
	// The times are inverted min-max normalised: the raw minimum maps
	// to value 1, the raw maximum to 0, everything lands in [0,1].
	for _, m := range []string{delivery.MeasureMeanTime, delivery.MeasureP95Time} {
		rawV, norm := scores.Raw[m], scores.Values[m]
		minI, maxI := 0, 0
		for i := range rawV {
			if rawV[i] < rawV[minI] {
				minI = i
			}
			if rawV[i] > rawV[maxI] {
				maxI = i
			}
		}
		if rawV[minI] == rawV[maxI] {
			t.Fatalf("%s: degenerate sample, pick a different subset", m)
		}
		if norm[minI] != 1 || norm[maxI] != 0 {
			t.Fatalf("%s: inverted normalisation broken: min→%v, max→%v", m, norm[minI], norm[maxI])
		}
		for i, v := range norm {
			if v < 0 || v > 1 {
				t.Fatalf("%s[%d] normalised to %v", m, i, v)
			}
		}
	}
}

// TestLabelsMatchSprintf holds Strategy.String, which concatenates, to
// the fmt.Sprintf format it replaced, at every point of the space: the
// label is the CSV's point column.
func TestLabelsMatchSprintf(t *testing.T) {
	d := delivery.Domain()
	for _, p := range d.Space().Enumerate() {
		s, err := delivery.FromPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s/f%d/%s/%s/%s", s.Selection, s.Fanout, s.Racing, s.Timeout, s.Scenario)
		if got := d.Label(p); got != want {
			t.Fatalf("Label(%v) = %q, want %q", p, got, want)
		}
	}
}
