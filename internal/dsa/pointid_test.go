package dsa_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
)

// pointIDCase is one space under FuzzPointID: a domain and the
// string-keyed map (point key → enumeration index) that Base.PointID
// read before the dense table replaced it — the reference.
type pointIDCase struct {
	d   dsa.Domain
	ref map[string]int
}

func pointIDCases(t testing.TB) []pointIDCase {
	t.Helper()
	// A constrained toy: the diagonal and every point with a=3 are
	// rejected, so IDs skip codes in the middle and at the end.
	space, err := core.NewSpace("toy-constrained", []core.Dimension{
		{Name: "a", Values: []string{"0", "1", "2", "3"}},
		{Name: "b", Values: []string{"0", "1", "2"}},
		{Name: "c", Values: []string{"x", "y"}},
	}, func(p core.Point) bool { return p[0] != p[1] && p[0] != 3 })
	if err != nil {
		t.Fatal(err)
	}
	constrained := dsa.NewBase("toy-constrained", space, dsa.Config{}, dsa.Config{}, dsa.Measure{Name: "m"})
	var out []pointIDCase
	for _, r := range domainRows { // every registered domain, then the toy
		out = append(out, pointIDCase{d: r.d})
	}
	out = append(out, pointIDCase{d: toyDomain{constrained}})
	for i := range out {
		pts := out[i].d.Space().Enumerate()
		out[i].ref = make(map[string]int, len(pts))
		for id, p := range pts {
			out[i].ref[p.Key()] = id
		}
	}
	return out
}

// FuzzPointID holds Base.PointID's dense mixed-radix table to the
// string-keyed map it replaced, over every registered domain and the toy
// spaces: every enumerated point round-trips through PointByID, and an
// arbitrary coordinate vector — wrong length, negative, out of range or
// rejected by the constraint — gets the map's answer: its ID or an error.
func FuzzPointID(f *testing.F) {
	cases := pointIDCases(f)
	for _, c := range cases {
		for id, p := range c.d.Space().Enumerate() {
			got, err := c.d.PointID(p)
			if err != nil || got != id {
				f.Fatalf("%s: point %v has ID %d (%v), want %d", c.d.Name(), p, got, err, id)
			}
			if back, err := c.d.PointByID(got); err != nil || !back.Equal(p) {
				f.Fatalf("%s: ID %d decodes to %v (%v), want %v", c.d.Name(), got, back, err, p)
			}
		}
	}
	for which := range cases {
		f.Add(uint8(which), []byte{0, 0, 0, 0, 0, 0})
		f.Add(uint8(which), []byte{1, 1, 1})
		f.Add(uint8(which), []byte{3, 3, 0, 5, 9, 2})
		f.Add(uint8(which), []byte{0xff, 0, 0, 0, 0, 0})
		f.Add(uint8(which), []byte{0, 0, 0, 0, 0, 0, 0})
		f.Add(uint8(which), []byte{})
	}
	f.Fuzz(func(t *testing.T, which uint8, coords []byte) {
		c := cases[int(which)%len(cases)]
		p := make(core.Point, len(coords))
		for i, b := range coords {
			p[i] = int(int8(b))
		}
		want, inSpace := c.ref[p.Key()]
		got, err := c.d.PointID(p)
		switch {
		case inSpace && (err != nil || got != want):
			t.Fatalf("%s: PointID(%v) = %d, %v; want %d", c.d.Name(), p, got, err, want)
		case !inSpace && err == nil:
			t.Fatalf("%s: PointID(%v) = %d, want an error", c.d.Name(), p, got)
		}
	})
}
