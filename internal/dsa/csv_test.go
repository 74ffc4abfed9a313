package dsa_test

// Round-trip property tests for the generic CSV codec: random subsets
// of a quoting-hostile space, scores drawn from finite values rounded
// to the codec's six-decimal precision plus the specified non-finite
// encodings (NaN, ±Inf), and the empty-panel edge case. The fake
// domain's labels and dimension values embed commas, quotes and
// newlines on purpose — the codec must lean on csv quoting, never on
// the strings being friendly.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
)

// quirkDomain is a minimal Domain whose human-facing strings are
// hostile to naive CSV writing. Only the codec-facing methods are
// implemented; the engine-facing ones are never called by WriteCSV or
// ReadCSV and panic to prove it.
type quirkDomain struct {
	space *core.Space
}

func newQuirkDomain(t *testing.T) quirkDomain {
	t.Helper()
	space, err := core.NewSpace("quirk", []core.Dimension{
		{Name: "alloc,policy", Values: []string{`a,b`, `c"d`, "e\nf"}},
		{Name: `rank "fn"`, Values: []string{"x", "y,z"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return quirkDomain{space: space}
}

func (q quirkDomain) Name() string       { return "quirk" }
func (q quirkDomain) Space() *core.Space { return q.space }

func (q quirkDomain) PointID(p core.Point) (int, error) {
	for i, cand := range q.space.Enumerate() {
		if cand.Equal(p) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("quirk: point %v not in space", p)
}

func (q quirkDomain) PointByID(id int) (core.Point, error) {
	pts := q.space.Enumerate()
	if id < 0 || id >= len(pts) {
		return nil, fmt.Errorf("quirk: id %d out of range", id)
	}
	return pts[id], nil
}

func (q quirkDomain) Label(p core.Point) string {
	parts := make([]string, len(p))
	for d, v := range p {
		parts[d] = q.space.Dimensions[d].Values[v]
	}
	return `point "` + strings.Join(parts, ",") + `"` + "\nsecond line"
}

func (q quirkDomain) Measures() []string { return []string{"m,1", `m"2`} }

func (q quirkDomain) DefaultConfig(string) (dsa.Config, error) {
	panic("quirk: DefaultConfig is not part of the CSV codec")
}
func (q quirkDomain) SampleOpponents(dsa.Config) []core.Point {
	panic("quirk: SampleOpponents is not part of the CSV codec")
}
func (q quirkDomain) ScoreSlice(string, []core.Point, []core.Point, dsa.Config) ([]float64, error) {
	panic("quirk: ScoreSlice is not part of the CSV codec")
}
func (q quirkDomain) Assemble([]core.Point, map[string][]float64) (*dsa.Scores, error) {
	panic("quirk: Assemble is not part of the CSV codec")
}

// randomScore draws finite values already rounded to the codec's
// six-decimal wire precision (so equality is exact after a round
// trip), salted with the specified non-finite encodings.
func randomScore(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	}
	v, err := strconv.ParseFloat(strconv.FormatFloat(rng.NormFloat64()*1e3, 'f', 6, 64), 64)
	if err != nil {
		panic(err)
	}
	return v
}

func sameScore(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func TestCSVRoundTripProperty(t *testing.T) {
	d := newQuirkDomain(t)
	all := d.Space().Enumerate()
	rng := rand.New(rand.NewSource(20260728))

	for iter := 0; iter < 200; iter++ {
		// Random subset of the space, in random order, possibly empty.
		perm := rng.Perm(len(all))
		pts := make([]core.Point, rng.Intn(len(all)+1))
		for i := range pts {
			pts[i] = all[perm[i]]
		}
		want := &dsa.Scores{
			Domain: d.Name(),
			Points: pts,
			Raw:    map[string][]float64{},
			Values: map[string][]float64{},
		}
		for _, m := range d.Measures() {
			raw := make([]float64, len(pts))
			vals := make([]float64, len(pts))
			for i := range pts {
				raw[i], vals[i] = randomScore(rng), randomScore(rng)
			}
			want.Raw[m], want.Values[m] = raw, vals
		}

		var buf bytes.Buffer
		if err := dsa.WriteCSV(&buf, d, want); err != nil {
			t.Fatalf("iter %d: write: %v", iter, err)
		}
		got, err := dsa.ReadCSV(bytes.NewReader(buf.Bytes()), d)
		if err != nil {
			t.Fatalf("iter %d: read: %v\nfile:\n%s", iter, err, buf.String())
		}
		if len(got.Points) != len(pts) {
			t.Fatalf("iter %d: %d points round-tripped to %d", iter, len(pts), len(got.Points))
		}
		for i, p := range pts {
			if !got.Points[i].Equal(p) {
				t.Fatalf("iter %d: point %d = %v, want %v", iter, i, got.Points[i], p)
			}
		}
		for _, m := range d.Measures() {
			for i := range pts {
				if !sameScore(got.Raw[m][i], want.Raw[m][i]) {
					t.Fatalf("iter %d: raw %s[%d] = %v, want %v", iter, m, i, got.Raw[m][i], want.Raw[m][i])
				}
				if !sameScore(got.Values[m][i], want.Values[m][i]) {
					t.Fatalf("iter %d: %s[%d] = %v, want %v", iter, m, i, got.Values[m][i], want.Values[m][i])
				}
			}
		}
	}
}

func TestCSVEmptyPanelRoundTrip(t *testing.T) {
	d := newQuirkDomain(t)
	empty := &dsa.Scores{
		Domain: d.Name(),
		Raw:    map[string][]float64{},
		Values: map[string][]float64{},
	}
	var buf bytes.Buffer
	if err := dsa.WriteCSV(&buf, d, empty); err != nil {
		t.Fatal(err)
	}
	got, err := dsa.ReadCSV(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatalf("header-only CSV should round-trip, got: %v", err)
	}
	if len(got.Points) != 0 {
		t.Fatalf("empty panel read back %d points", len(got.Points))
	}
	for _, m := range d.Measures() {
		if got.Raw[m] == nil || got.Values[m] == nil {
			t.Fatalf("measure %q should be present (empty), got nil", m)
		}
	}
	if _, err := dsa.ReadCSV(strings.NewReader(""), d); err == nil {
		t.Fatal("a file with no header row must still be rejected")
	}
}

// TestCSVNonFiniteEncoding pins the wire tokens themselves: the
// encoding is a contract, not an accident of fmt.
func TestCSVNonFiniteEncoding(t *testing.T) {
	d := newQuirkDomain(t)
	pts := d.Space().Enumerate()[:3]
	s := &dsa.Scores{
		Domain: d.Name(),
		Points: pts,
		Raw: map[string][]float64{
			"m,1": {math.NaN(), math.Inf(1), math.Inf(-1)},
			`m"2`: {0.5, 0.5, 0.5},
		},
		Values: map[string][]float64{
			"m,1": {math.Inf(-1), math.NaN(), math.Inf(1)},
			`m"2`: {1, 2, 3},
		},
	}
	var buf bytes.Buffer
	if err := dsa.WriteCSV(&buf, d, s); err != nil {
		t.Fatal(err)
	}
	for _, token := range []string{"NaN", "+Inf", "-Inf"} {
		if !strings.Contains(buf.String(), token) {
			t.Fatalf("wire format should contain the canonical %q token:\n%s", token, buf.String())
		}
	}
	got, err := dsa.ReadCSV(bytes.NewReader(buf.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range s.Raw["m,1"] {
		if !sameScore(got.Raw["m,1"][i], want) {
			t.Fatalf("raw[%d] = %v, want %v", i, got.Raw["m,1"][i], want)
		}
	}
}

// TestWriteCSVFile: the one file writer of the three commands puts
// WriteCSV's bytes on disk and reports a path it cannot create.
func TestWriteCSVFile(t *testing.T) {
	d := newQuirkDomain(t)
	pts := d.Space().Enumerate()[:2]
	s := &dsa.Scores{
		Domain: d.Name(),
		Points: pts,
		Raw:    map[string][]float64{"m,1": {1, 2}, `m"2`: {3, 4}},
		Values: map[string][]float64{"m,1": {0, 1}, `m"2`: {1, 0}},
	}
	var want bytes.Buffer
	if err := dsa.WriteCSV(&want, d, s); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.csv")
	if err := dsa.WriteCSVFile(path, d, s); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds %q, WriteCSV wrote %q", got, want.Bytes())
	}
	if err := dsa.WriteCSVFile(filepath.Join(path, "under-a-file.csv"), d, s); err == nil {
		t.Fatal("a path that cannot be created must be an error")
	}
}

// FuzzReadCSV feeds arbitrary bytes to every registered domain's CSV
// reader — dsa-report and dsa-sweep -merge read whatever file they are
// given: no panic, and a file a domain accepts writes back without error
// to bytes that read and write back to themselves.
func FuzzReadCSV(f *testing.F) {
	for _, d := range dsa.Registered() {
		pts := dsa.StridePoints(d, d.Space().Size()/3)
		s := &dsa.Scores{Domain: d.Name(), Points: pts, Raw: map[string][]float64{}, Values: map[string][]float64{}}
		for k, m := range d.Measures() {
			s.Raw[m], s.Values[m] = make([]float64, len(pts)), make([]float64, len(pts))
			for i := range pts {
				s.Raw[m][i], s.Values[m][i] = float64(k*len(pts)+i)/7, float64(i)/3
			}
		}
		s.Raw[d.Measures()[0]][0] = math.NaN()
		var buf bytes.Buffer
		if err := dsa.WriteCSV(&buf, d, s); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("domain,id\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, d := range dsa.Registered() {
			s, err := dsa.ReadCSV(bytes.NewReader(raw), d)
			if err != nil {
				continue
			}
			var once, twice bytes.Buffer
			if err := dsa.WriteCSV(&once, d, s); err != nil {
				t.Fatalf("%s read %q but cannot write it back: %v", d.Name(), raw, err)
			}
			back, err := dsa.ReadCSV(bytes.NewReader(once.Bytes()), d)
			if err == nil {
				err = dsa.WriteCSV(&twice, d, back)
			}
			if err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("%s: %q writes back as %q, which reads and writes back as %q (%v)", d.Name(), raw, once.Bytes(), twice.Bytes(), err)
			}
		}
	})
}

// FuzzCSVRecord holds dsa.CSVEncoder, the writer of every domain CSV, to
// encoding/csv.Writer byte for byte: three arbitrary text cells, a score
// and an integer in one row (the numeric cells are the strings csv would
// have been handed), then a row of one cell and an empty row.
func FuzzCSVRecord(f *testing.F) {
	for _, s := range [][3]string{
		{"", "", ""}, {`\.`, `\.x`, `x\.`},
		{`"`, `a"b`, `""`}, {"\r", "a\r\nb", "\n"}, {",", "a,b", `,"`},
		{" a", "\ta", "a "}, {"\u0085a", "\u00a0a", "a\u00a0"},
		{"\xff", "\xc3", "a\xe2\x80"}, {"\u2028", "\u3000a", "\xc2\x85"},
	} {
		f.Add(s[0], s[1], s[2], math.Float64bits(-0.5), int64(-7))
	}
	f.Add("Balanced/f4/Race/Adaptive/Sybil", "delivery", "1", math.Float64bits(math.NaN()), int64(575))
	f.Fuzz(func(t *testing.T, a, b, c string, bits uint64, n int64) {
		v := math.Float64frombits(bits)
		var want, got bytes.Buffer
		cw := csv.NewWriter(&want)
		for _, rec := range [][]string{{a, b, c, dsa.FormatScore(v), strconv.FormatInt(n, 10)}, {c}, {}} {
			if err := cw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		enc := dsa.NewCSVEncoder(&got)
		enc.Text(a)
		enc.Text(b)
		enc.Text(c)
		enc.Score(v)
		enc.Int(int(n))
		err := enc.EndRow()
		if err == nil {
			enc.Text(c)
			err = enc.EndRow()
		}
		if err == nil {
			err = enc.EndRow()
		}
		if err == nil {
			err = enc.Flush()
		}
		if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("encoder wrote %q (%v), encoding/csv %q", got.Bytes(), err, want.Bytes())
		}
	})
}

// failWriter refuses every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteCSVReportsWriteError: a write the underlying writer refuses
// fails WriteCSV, for the generic layout and for swarming's, however
// small the file.
func TestWriteCSVReportsWriteError(t *testing.T) {
	for _, d := range append(dsa.Registered(), dsa.Domain(newQuirkDomain(t))) {
		s := &dsa.Scores{Domain: d.Name(), Raw: map[string][]float64{}, Values: map[string][]float64{}}
		if err := dsa.WriteCSV(failWriter{}, d, s); err == nil || err.Error() != "disk full" {
			t.Errorf("%s: WriteCSV to a failing writer = %v, want disk full", d.Name(), err)
		}
	}
}

// syntheticScores are scores of d at pts, each measure's raw values
// spread like times (0–300) and its assembled values like fractions.
func syntheticScores(d dsa.Domain, pts []core.Point) *dsa.Scores {
	rng := rand.New(rand.NewSource(1))
	s := &dsa.Scores{Domain: d.Name(), Points: pts, Raw: map[string][]float64{}, Values: map[string][]float64{}}
	for _, m := range d.Measures() {
		s.Raw[m], s.Values[m] = make([]float64, len(pts)), make([]float64, len(pts))
		for i := range pts {
			s.Raw[m][i], s.Values[m][i] = rng.Float64()*300, rng.Float64()
		}
	}
	return s
}

// BenchmarkWriteCSV writes every point of each registered domain; ns/op
// over the row count is the per-row cost the perf ledger reports as
// dsa.csv.write_us_per_row.
func BenchmarkWriteCSV(b *testing.B) {
	for _, d := range dsa.Registered() {
		pts := d.Space().Enumerate()
		s := syntheticScores(d, pts)
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := dsa.WriteCSV(io.Discard, d, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/row")
		})
	}
}
