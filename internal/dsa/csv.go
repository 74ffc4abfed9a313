package dsa

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Generic CSV layout, shared by dsa-sweep and dsa-report for every
// domain without a bespoke format:
//
//	domain, id, point, <one column per dimension>, then per measure m
//	in canonical order: raw_<m>, <m>
//
// domain names the design space the row belongs to (verified on read,
// so a file cannot be silently reinterpreted under the wrong domain),
// id is the domain's stable point ID, point the human label; dimension
// columns carry the actualized value strings so the file is greppable
// and regression-friendly without the codec.
//
// Score cells are specified, not incidental: finite values encode as
// fixed six-decimal notation, and non-finite values — which a domain
// may legitimately produce (a diverging measure, a 0/0 ratio) —
// encode deterministically as the exact tokens "NaN", "+Inf" and
// "-Inf", which ReadCSV parses back. A header-only file (an empty
// evaluated panel) is a valid round trip, not an error. Embedded
// commas, quotes and newlines in labels or dimension values are the
// csv package's quoting problem, covered by the codec's property test.

// formatScore renders one score cell: six decimals for finite values,
// canonical tokens for the non-finite ones.
func formatScore(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'f', 6, 64)
}

// WriteCSV serialises assembled scores in the generic domain CSV
// format.
func WriteCSV(w io.Writer, d Domain, s *Scores) error {
	if err := s.Check(d); err != nil {
		return err
	}
	space := d.Space()
	header := []string{"domain", "id", "point"}
	for _, dim := range space.Dimensions {
		header = append(header, dim.Name)
	}
	for _, m := range d.Measures() {
		header = append(header, "raw_"+m, m)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, p := range s.Points {
		id, err := d.PointID(p)
		if err != nil {
			return fmt.Errorf("dsa: row %d: %w", i, err)
		}
		row := []string{d.Name(), strconv.Itoa(id), d.Label(p)}
		for dim, v := range p {
			row = append(row, space.Dimensions[dim].Values[v])
		}
		for _, m := range d.Measures() {
			row = append(row, formatScore(s.Raw[m][i]), formatScore(s.Values[m][i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a generic domain CSV back into Scores. Columns are
// located by header name, so extra columns and reordering are fine;
// points are restored through the domain's ID codec.
func ReadCSV(r io.Reader, d Domain) (*Scores, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dsa: CSV has no header row")
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	for _, need := range []string{"domain", "id"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("dsa: CSV column %q missing", need)
		}
	}
	for _, m := range d.Measures() {
		for _, c := range []string{"raw_" + m, m} {
			if _, ok := col[c]; !ok {
				return nil, fmt.Errorf("dsa: CSV column %q missing", c)
			}
		}
	}
	s := &Scores{
		Domain: d.Name(),
		Raw:    map[string][]float64{},
		Values: map[string][]float64{},
	}
	// Every measure is present even for a header-only file, so an
	// empty panel round-trips and Measure() never distinguishes
	// "no rows" from "unknown measure" by accident.
	for _, m := range d.Measures() {
		s.Raw[m] = []float64{}
		s.Values[m] = []float64{}
	}
	for rowIdx, row := range rows[1:] {
		if got := row[col["domain"]]; got != d.Name() {
			return nil, fmt.Errorf("dsa: row %d is for domain %q, not %q", rowIdx+2, got, d.Name())
		}
		id, err := strconv.Atoi(row[col["id"]])
		if err != nil {
			return nil, fmt.Errorf("dsa: row %d: bad id: %w", rowIdx+2, err)
		}
		p, err := d.PointByID(id)
		if err != nil {
			return nil, fmt.Errorf("dsa: row %d: %w", rowIdx+2, err)
		}
		s.Points = append(s.Points, p)
		for _, m := range d.Measures() {
			for _, c := range []struct {
				name string
				dst  map[string][]float64
			}{{"raw_" + m, s.Raw}, {m, s.Values}} {
				v, err := strconv.ParseFloat(row[col[c.name]], 64)
				if err != nil {
					return nil, fmt.Errorf("dsa: row %d: bad %s: %w", rowIdx+2, c.name, err)
				}
				c.dst[m] = append(c.dst[m], v)
			}
		}
	}
	return s, nil
}
