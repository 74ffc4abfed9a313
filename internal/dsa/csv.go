package dsa

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// CSVLayout is an optional Domain extension, like ScoreVersioned and
// JointScorer: a domain whose CSV predates the generic layout below (the
// swarming domain's columns are the figure extractors' input) writes and
// reads its own rows. WriteCSV and ReadCSV dispatch to it, so every tool
// — dsa-sweep, dsa-grid, dsa-report, the grid results route — renders a
// domain one way; the scores a layout is handed have passed Scores.Check.
type CSVLayout interface {
	WriteCSV(w io.Writer, s *Scores) error
	ReadCSV(r io.Reader) (*Scores, error)
}

// Generic CSV layout, shared by dsa-sweep and dsa-report for every
// domain without one of its own:
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

// FormatScore renders one score cell: six decimals for finite values,
// canonical tokens for the non-finite ones.
func FormatScore(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	var buf [32]byte
	return string(appendFixed6(buf[:0], v))
}

// pow10 holds 1e-6 … 1e12: where a value sits among them gives its
// decimal exponent, and so how many significant digits six decimals are.
var pow10 = [...]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12}

// appendFixed6 appends strconv.FormatFloat(v, 'f', 6, 64), bit for bit
// (FuzzFormatScore), for a finite v. 'f' with a precision always takes
// strconv's multi-precision path; 'e' with up to 18 significant digits
// takes its fixed-width Ryu path and rounds the same exact value half to
// even at the same decimal place, so for 1e-6 <= |v| < 1e12 the cell is
// the 'e' digits laid out again around the point.
func appendFixed6(b []byte, v float64) []byte {
	a := math.Abs(v)
	if a < pow10[0] || a >= pow10[len(pow10)-1] {
		if a == 0 && !math.Signbit(v) {
			return append(b, "0.000000"...)
		}
		return strconv.AppendFloat(b, v, 'f', 6, 64)
	}
	n := 1 // significant digits down to the sixth decimal: decimal exponent + 7
	for a >= pow10[n] {
		n++
	}
	var buf [32]byte
	e := strconv.AppendFloat(buf[:0], a, 'e', n-1, 64) // d[.ddd]e±xx
	mark := len(e) - 4
	exp := int(e[mark+2]-'0')*10 + int(e[mark+3]-'0')
	if e[mark+1] == '-' {
		exp = -exp
	}
	// exp is n-7, or n-6 when rounding carried into a new leading digit
	// (the digits are then 10…0, exact at any length). A pow10 entry below
	// its decimal value could make it n-8: one digit too many was asked
	// for, and strconv settles it.
	if exp < n-7 {
		return strconv.AppendFloat(b, v, 'f', 6, 64)
	}
	digit := func(i int) byte { // the 10^(exp-i) place
		switch {
		case i == 0:
			return e[0]
		case i > 0 && i+1 < mark:
			return e[i+1]
		}
		return '0'
	}
	if math.Signbit(v) {
		b = append(b, '-')
	}
	if exp < 0 {
		b = append(b, '0')
	}
	for i := 0; i <= exp; i++ {
		b = append(b, digit(i))
	}
	b = append(b, '.')
	for i := exp + 1; i <= exp+6; i++ {
		b = append(b, digit(i))
	}
	return b
}

// WriteCSV serialises assembled scores in the domain's CSV format: its
// own CSVLayout if it has one, the generic layout otherwise.
func WriteCSV(w io.Writer, d Domain, s *Scores) error {
	if err := s.Check(d); err != nil {
		return err
	}
	if l, ok := d.(CSVLayout); ok {
		return l.WriteCSV(w, s)
	}
	space, measures := d.Space(), d.Measures()
	header := []string{"domain", "id", "point"}
	for _, dim := range space.Dimensions {
		header = append(header, dim.Name)
	}
	for _, m := range measures {
		header = append(header, "raw_"+m, m)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header)) // the writer keeps no row
	for i, p := range s.Points {
		id, err := d.PointID(p)
		if err != nil {
			return fmt.Errorf("dsa: row %d: %w", i, err)
		}
		row = append(row[:0], d.Name(), strconv.Itoa(id), d.Label(p))
		for dim, v := range p {
			row = append(row, space.Dimensions[dim].Values[v])
		}
		for _, m := range measures {
			row = append(row, FormatScore(s.Raw[m][i]), FormatScore(s.Values[m][i]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile creates path and writes WriteCSV's bytes to it. A failed
// write or close is an error, so a short file never passes for a result.
func WriteCSVFile(path string, d Domain, s *Scores) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(f, d, s); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CSVTable is a parsed CSV whose columns are located by header name, so
// extra columns and reordering are fine.
type CSVTable struct {
	col  map[string]int
	Rows [][]string // the data rows, header excluded
}

// ReadCSVTable parses r and checks that the header names every column
// in need.
func ReadCSVTable(r io.Reader, need ...string) (*CSVTable, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dsa: CSV has no header row")
	}
	t := &CSVTable{col: map[string]int{}, Rows: rows[1:]}
	for i, h := range rows[0] {
		t.col[h] = i
	}
	for _, c := range need {
		if _, ok := t.col[c]; !ok {
			return nil, fmt.Errorf("dsa: CSV column %q missing", c)
		}
	}
	return t, nil
}

// Cell is data row i's value in the named column.
func (t *CSVTable) Cell(i int, column string) string { return t.Rows[i][t.col[column]] }

// Score parses data row i's cell in the named column as a score.
func (t *CSVTable) Score(i int, column string) (float64, error) {
	v, err := strconv.ParseFloat(t.Cell(i, column), 64)
	if err != nil {
		return 0, t.Errorf(i, "bad %s: %w", column, err)
	}
	return v, nil
}

// Errorf is an error about data row i, named by its line in the file.
func (t *CSVTable) Errorf(i int, format string, args ...any) error {
	return fmt.Errorf("dsa: row %d: "+format, append([]any{i + 2}, args...)...)
}

// ReadCSV parses a domain CSV — the domain's own CSVLayout, or the
// generic one — back into Scores. Points are restored through the
// domain's ID codec.
func ReadCSV(r io.Reader, d Domain) (*Scores, error) {
	if l, ok := d.(CSVLayout); ok {
		return l.ReadCSV(r)
	}
	need := []string{"domain", "id"}
	for _, m := range d.Measures() {
		need = append(need, "raw_"+m, m)
	}
	t, err := ReadCSVTable(r, need...)
	if err != nil {
		return nil, err
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
	for i := range t.Rows {
		if got := t.Cell(i, "domain"); got != d.Name() {
			return nil, t.Errorf(i, "is for domain %q, not %q", got, d.Name())
		}
		id, err := strconv.Atoi(t.Cell(i, "id"))
		if err != nil {
			return nil, t.Errorf(i, "bad id: %w", err)
		}
		p, err := d.PointByID(id)
		if err != nil {
			return nil, t.Errorf(i, "%w", err)
		}
		s.Points = append(s.Points, p)
		for _, m := range d.Measures() {
			raw, err := t.Score(i, "raw_"+m)
			if err != nil {
				return nil, err
			}
			val, err := t.Score(i, m)
			if err != nil {
				return nil, err
			}
			s.Raw[m], s.Values[m] = append(s.Raw[m], raw), append(s.Values[m], val)
		}
	}
	return s, nil
}
