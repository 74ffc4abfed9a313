package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/pra"
)

func TestCSVRoundTrip(t *testing.T) {
	r := sweepForTest(t)
	var sb strings.Builder
	if err := dsa.WriteCSV(&sb, pra.Domain(), r.Scores); err != nil {
		t.Fatal(err)
	}
	scores, err := dsa.ReadCSV(strings.NewReader(sb.String()), pra.Domain())
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewSweepResult(scores)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Protocols) != len(r.Protocols) {
		t.Fatalf("rows = %d, want %d", len(back.Protocols), len(r.Protocols))
	}
	for i := range r.Protocols {
		if back.Protocols[i] != r.Protocols[i] {
			t.Fatalf("protocol %d changed", i)
		}
	}
	for _, m := range pra.Domain().Measures() {
		for i := range r.Protocols {
			if diff(back.Scores.Measure(m)[i], r.Scores.Measure(m)[i]) > 1e-6 ||
				diff(back.Scores.Raw[m][i], r.Scores.Raw[m][i]) > 1e-4 {
				t.Fatalf("%s %d changed", m, i)
			}
		}
	}
	// A re-read file re-writes to the same bytes: the CSV is the
	// layout's fixed point, whichever engine produced the scores.
	var again bytes.Buffer
	if err := WriteDomainCSV(&again, pra.Domain(), back.Scores); err != nil {
		t.Fatal(err)
	}
	if again.String() != sb.String() {
		t.Fatal("write → read → write changed the CSV")
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestCSVEmptyPanelRoundTrip: a header-only file (an empty evaluated
// panel) is a valid round trip, as it is for every other domain's CSV.
func TestCSVEmptyPanelRoundTrip(t *testing.T) {
	empty, err := pra.Domain().Assemble(nil, map[string][]float64{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDomainCSV(&buf, pra.Domain(), empty); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "id,protocol,stranger,h,candidates,ranking,k,allocation,raw_kbps,performance,robustness,aggressiveness\n"; got != want {
		t.Fatalf("empty panel wrote %q, want the header only", got)
	}
	back, err := dsa.ReadCSV(&buf, pra.Domain())
	if err != nil {
		t.Fatalf("header-only CSV refused: %v", err)
	}
	if len(back.Points) != 0 {
		t.Fatalf("header-only CSV read back %d points", len(back.Points))
	}
	for _, m := range pra.Domain().Measures() {
		if back.Measure(m) == nil || back.Raw[m] == nil {
			t.Errorf("measure %q missing after an empty round trip", m)
		}
	}
}

// TestWriteDomainCSVChecksVectors: scores whose measure vectors do not
// cover every point are an error, never an index out of range.
func TestWriteDomainCSVChecksVectors(t *testing.T) {
	pts := pra.Points([]design.Protocol{design.BitTorrent(), design.Birds()})
	full := func() map[string][]float64 {
		return map[string][]float64{
			pra.MeasurePerformance: {1, 2}, pra.MeasureRobustness: {1, 2}, pra.MeasureAggressiveness: {1, 2},
		}
	}
	short := full()
	short[pra.MeasureRobustness] = []float64{1}
	cases := map[string]*dsa.Scores{
		"no vectors":   {Domain: pra.DomainName, Points: pts},
		"raw only":     {Domain: pra.DomainName, Points: pts, Raw: full()},
		"short values": {Domain: pra.DomainName, Points: pts, Raw: full(), Values: short},
		"short raw":    {Domain: pra.DomainName, Points: pts, Raw: short, Values: full()},
	}
	for name, s := range cases {
		err := WriteDomainCSV(&bytes.Buffer{}, pra.Domain(), s)
		if err == nil || !strings.Contains(err.Error(), "values for 2 points") {
			t.Errorf("%s: err = %v, want a measure-length error", name, err)
		}
	}
	if err := WriteDomainCSV(&bytes.Buffer{}, pra.Domain(), &dsa.Scores{Domain: pra.DomainName, Points: pts, Raw: full(), Values: full()}); err != nil {
		t.Errorf("complete scores refused: %v", err)
	}
	// Another domain's scores, and a point outside the space.
	if _, err := NewSweepResult(&dsa.Scores{Domain: "gossip"}); err == nil {
		t.Error("gossip scores accepted as swarming")
	}
	bad := &dsa.Scores{Domain: pra.DomainName, Points: []core.Point{{9, 9, 9}},
		Raw: map[string][]float64{}, Values: map[string][]float64{}}
	for _, m := range pra.Domain().Measures() {
		bad.Raw[m], bad.Values[m] = []float64{0}, []float64{0}
	}
	if _, err := NewSweepResult(bad); err == nil {
		t.Error("a point outside the space accepted")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",           // empty
		"protocol\n", // header only, missing columns
		"protocol,raw_kbps,performance,robustness,aggressiveness\nBADCODE,1,1,1,1\n",
		"protocol,raw_kbps,performance,robustness,aggressiveness\nB1h1-C1-I1k4-R1,x,1,1,1\n",
	}
	for i, in := range cases {
		if _, err := dsa.ReadCSV(strings.NewReader(in), pra.Domain()); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestReadCSVTolerantToExtraColumns(t *testing.T) {
	in := "extra,protocol,raw_kbps,performance,robustness,aggressiveness\n" +
		"zz,B1h1-C1-I1k4-R1,100,0.5,0.25,0.125\n"
	res, err := dsa.ReadCSV(strings.NewReader(in), pra.Domain())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Measure(pra.MeasureRobustness)[0] != 0.25 ||
		res.Raw[pra.MeasurePerformance][0] != 100 {
		t.Fatalf("parsed %+v", res)
	}
}
