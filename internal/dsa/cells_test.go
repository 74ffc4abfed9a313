package dsa_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/dsa"
	"repro/internal/pra"
)

// writeCSVPerCell is the per-cell encoder the cell table replaced, kept as
// its oracle: every cell of every row rendered afresh, in the generic
// layout or, for the swarming domain's CSVLayout, in that layout.
func writeCSVPerCell(w io.Writer, d dsa.Domain, s *dsa.Scores) error {
	enc := dsa.NewCSVEncoder(w)
	if _, ok := d.(dsa.CSVLayout); ok {
		for _, h := range []string{"id", "protocol", "stranger", "h", "candidates", "ranking", "k", "allocation",
			"raw_kbps", "performance", "robustness", "aggressiveness"} {
			enc.Text(h)
		}
		if err := enc.EndRow(); err != nil {
			return err
		}
		for i, pt := range s.Points {
			id, err := d.PointID(pt)
			if err != nil {
				return err
			}
			p, err := pra.FromPoint(pt)
			if err != nil {
				return err
			}
			enc.Int(id)
			enc.Text(p.String())
			enc.Text(p.Stranger.String())
			enc.Int(p.H)
			enc.Text(p.Candidate.String())
			enc.Text(p.Ranking.String())
			enc.Int(p.K)
			enc.Text(p.Allocation.String())
			enc.Score(s.Raw[pra.MeasurePerformance][i])
			for _, m := range d.Measures() {
				enc.Score(s.Values[m][i])
			}
			if err := enc.EndRow(); err != nil {
				return err
			}
		}
		return enc.Flush()
	}
	space, measures := d.Space(), d.Measures()
	for _, h := range []string{"domain", "id", "point"} {
		enc.Text(h)
	}
	for _, dim := range space.Dimensions {
		enc.Text(dim.Name)
	}
	for _, m := range measures {
		enc.Text("raw_" + m)
		enc.Text(m)
	}
	if err := enc.EndRow(); err != nil {
		return err
	}
	for i, p := range s.Points {
		id, err := d.PointID(p)
		if err != nil {
			return err
		}
		enc.Text(d.Name())
		enc.Int(id)
		enc.Text(d.Label(p))
		for dim, v := range p {
			enc.Text(space.Dimensions[dim].Values[v])
		}
		for _, m := range measures {
			enc.Score(s.Raw[m][i])
			enc.Score(s.Values[m][i])
		}
		if err := enc.EndRow(); err != nil {
			return err
		}
	}
	return enc.Flush()
}

// genericLayout wraps a domain without forwarding its CSVLayout, as a
// tracing or counting wrapper does: it writes the generic layout.
type genericLayout struct{ dsa.Domain }

// TestCellTableParity renders every registered domain's whole space, and
// the quoting-hostile quirk domain's, through the cell table from several
// goroutines at once — cold, every writer racing to fill the table, then
// warm — and holds every file to the per-cell encoder byte for byte. A
// strided subset written cold fills the table for its own points alone.
// The swarming domain's own layout and the generic layout of a wrapper
// that hides it keep apart, whichever is written first.
func TestCellTableParity(t *testing.T) {
	const writers = 4
	for _, d := range append(dsa.Registered(), dsa.Domain(newQuirkDomain(t))) {
		s := syntheticScores(d, d.Space().Enumerate())
		var want bytes.Buffer
		if err := writeCSVPerCell(&want, d, s); err != nil {
			t.Fatal(err)
		}
		dsa.ForgetCellTables()
		for _, pass := range []string{"cold", "warm"} {
			got := make([]bytes.Buffer, writers)
			errs := make([]error, writers)
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[w] = dsa.WriteCSV(&got[w], d, s)
				}()
			}
			wg.Wait()
			for w := range writers {
				if errs[w] != nil || !bytes.Equal(got[w].Bytes(), want.Bytes()) {
					t.Fatalf("%s, %s: writer %d wrote %d bytes (%v) that are not the per-cell encoder's %d",
						d.Name(), pass, w, got[w].Len(), errs[w], want.Len())
				}
			}
		}
		if n := dsa.FilledCells(d); n != len(s.Points) {
			t.Fatalf("%s: the whole space filled %d of %d points' cells", d.Name(), n, len(s.Points))
		}

		dsa.ForgetCellTables()
		sub := dsa.StridePoints(d, 7)
		ss := syntheticScores(d, sub)
		want.Reset()
		var got bytes.Buffer
		if err := writeCSVPerCell(&want, d, ss); err != nil {
			t.Fatal(err)
		}
		if err := dsa.WriteCSV(&got, d, ss); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: a strided subset writes other bytes (%v)", d.Name(), err)
		}
		if n := dsa.FilledCells(d); n != len(sub) {
			t.Fatalf("%s: %d points written filled %d points' cells", d.Name(), len(sub), n)
		}
	}

	dsa.ForgetCellTables()
	sw := pra.Domain()
	s := syntheticScores(sw, sw.Space().Enumerate())
	for _, d := range []dsa.Domain{sw, genericLayout{sw}, sw} {
		var want, got bytes.Buffer
		if err := writeCSVPerCell(&want, d, s); err != nil {
			t.Fatal(err)
		}
		if err := dsa.WriteCSV(&got, d, s); err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
			_, own := d.(dsa.CSVLayout)
			t.Fatalf("swarming, own layout %v: wrote %d bytes (%v) that are not the per-cell encoder's %d",
				own, got.Len(), err, want.Len())
		}
	}
}

// BenchmarkWriteCSVCold writes every point of each registered domain into
// an empty cell table, as the first write of a process does: each point's
// fixed cells are rendered and published before they are copied.
func BenchmarkWriteCSVCold(b *testing.B) {
	for _, d := range dsa.Registered() {
		pts := d.Space().Enumerate()
		s := syntheticScores(d, pts)
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				dsa.ForgetCellTables()
				if err := dsa.WriteCSV(io.Discard, d, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/row")
		})
	}
}
