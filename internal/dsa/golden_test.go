package dsa_test

// The value pin of the domain seam: every measure of every registered
// domain over its conformance row (conformance_test.go), bit for bit
// (hex floats), through each of the three ways a value leaves a domain —
// ScoreSlice, dsa.ScoreSlices and Assemble. bench/golden pins the same
// domains through six-decimal CSV text; this file pins the float bits,
// and is what a rewrite of a domain's scoring code is checked against.
//
// go test ./internal/dsa -run TestDomainGolden -update re-records from
// the live code, so only at a commit whose values are trusted.

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dsa"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/domains.golden.json from the live domains")

const goldenPath = "testdata/domains.golden.json"

// domainGolden is one domain's record: the point IDs scored, the raw
// value of every measure as ScoreSlice returns it and the assembled
// one, each vector as space-separated hex floats.
type domainGolden struct {
	Points []int             `json:"points"`
	Raw    map[string]string `json:"raw"`
	Values map[string]string `json:"values"`
}

func hexFloats(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'x', -1, 64)
	}
	return strings.Join(out, " ")
}

func TestDomainGolden(t *testing.T) {
	if err := rowsCoverRegistry(); err != nil {
		t.Fatal(err)
	}
	got := map[string]domainGolden{}
	for _, tc := range domainRows {
		if _, err := dsa.Get(tc.d.Name()); err != nil {
			continue // the toy: no registered domain, no golden
		}
		d, cfg := tc.d, tc.cfg
		pts := dsa.StridePoints(d, tc.stride)
		opponents := d.SampleOpponents(cfg)
		g := domainGolden{Raw: map[string]string{}, Values: map[string]string{}}
		for _, p := range pts {
			id, err := d.PointID(p)
			if err != nil {
				t.Fatal(err)
			}
			g.Points = append(g.Points, id)
		}
		joint, err := dsa.ScoreSlices(d, d.Measures(), pts, opponents, cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw := map[string][]float64{}
		for k, m := range d.Measures() {
			raw[m], err = d.ScoreSlice(m, pts, opponents, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g.Raw[m] = hexFloats(raw[m])
			if hexFloats(joint[k]) != g.Raw[m] {
				t.Errorf("%s/%s: dsa.ScoreSlices = %v, ScoreSlice = %v", d.Name(), m, hexFloats(joint[k]), g.Raw[m])
			}
		}
		scores, err := d.Assemble(pts, raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range d.Measures() {
			if hexFloats(scores.Raw[m]) != g.Raw[m] {
				t.Errorf("%s/%s: Assemble changed a raw value", d.Name(), m)
			}
			g.Values[m] = hexFloats(scores.Values[m])
		}
		got[d.Name()] = g
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]domainGolden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if !reflect.DeepEqual(g, want[name]) {
			t.Errorf("%s: values moved off the golden\n got %+v\nwant %+v", name, g, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d domains, %d registered", len(want), len(got))
	}
}
