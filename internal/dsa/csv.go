package dsa

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
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
// commas, quotes and newlines in labels or dimension values are quoted
// by CSVEncoder exactly as encoding/csv would, covered by the codec's
// property test.

// FormatScore renders one score cell: six decimals for finite values,
// canonical tokens for the non-finite ones.
func FormatScore(v float64) string { return string(AppendScore(nil, v)) }

// AppendScore appends FormatScore(v) to b.
func AppendScore(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, "NaN"...)
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	}
	return appendFixed6(b, v)
}

// appendFixed6 appends strconv.FormatFloat(v, 'f', 6, 64), bit for bit
// (FuzzFormatScore), for a finite v. Below 2^43 it works on v's exact
// binary value m·2^e: m·10^6 fits 128 bits, shifted right by -e it is
// v·10^6, rounded half to even on the remainder as strconv rounds the
// exact decimal, and the cell is that integer with a point six digits
// from its end. Larger values keep strconv.
func appendFixed6(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	m, e := u&(1<<52-1), int(u>>52&0x7ff)
	if e == 0 {
		e = 1 // subnormal: no implicit bit
	} else {
		m |= 1 << 52
	}
	if e > 1065 { // |v| >= 2^43, or not finite
		return strconv.AppendFloat(b, v, 'f', 6, 64)
	}
	s := uint(1075 - e)          // v = ±m·2^-s, s >= 10
	hi, lo := bits.Mul64(m, 1e6) // < 2^73
	// q is the quotient by 2^s, r the remainder, h half of 2^s; from
	// s = 128 on all stay 0, as m·10^6 is below half of 2^s.
	var q, rhi, rlo, hhi, hlo uint64
	switch {
	case s < 64:
		q, rlo, hlo = hi<<(64-s)|lo>>s, lo&(1<<s-1), 1<<(s-1)
	case s < 128:
		q, rhi, rlo = hi>>(s-64), hi&(1<<(s-64)-1), lo
		if s == 64 {
			hlo = 1 << 63
		} else {
			hhi = 1 << (s - 65)
		}
	}
	if rhi > hhi || rhi == hhi && (rlo > hlo || rlo == hlo && q&1 == 1) {
		q++
	}
	// The cell is written backwards: 6 decimals, the point, up to 13
	// integer digits (q < 2^63), a sign.
	var buf [23]byte
	ip, f := q/1e6, uint32(q%1e6)
	for k := 21; k >= 17; k -= 2 {
		d := 2 * (f % 100)
		buf[k], buf[k+1] = digitPairs[d], digitPairs[d+1]
		f /= 100
	}
	buf[16] = '.'
	i := 16
	for ; ip >= 10; ip /= 100 {
		d := 2 * (ip % 100)
		i -= 2
		buf[i], buf[i+1] = digitPairs[d], digitPairs[d+1]
	}
	if ip > 0 || i == 16 { // a leading digit, or the 0 of 0.xxxxxx
		i--
		buf[i] = byte('0' + ip)
	}
	if u>>63 != 0 {
		i--
		buf[i] = '-'
	}
	return append(b, buf[i:]...)
}

// digitPairs holds "00" to "99": two decimal digits a lookup.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// CSVEncoder writes CSV rows, one at a time: a row's cells are appended
// to one reused buffer and the row goes whole to a buffered writer, so
// writing a file holds one row and a fixed buffer, whatever its length.
// Text cells are quoted exactly as encoding/csv.Writer quotes them
// (FuzzCSVRecord); score and integer cells are digits, '.', '-' and the
// non-finite tokens, which never need quoting, so they skip the scan.
// Every domain layout writes through it.
type CSVEncoder struct {
	w   *bufio.Writer
	row []byte
	// fixed and refs hold the fixed cells this encoder rendered cold and
	// published, and their slice headers, in chunks that are only
	// appended to: what is published never moves, and a file's cold
	// points cost a few allocations, not one or two each.
	fixed []byte
	refs  [][]byte
}

// cellChunk is the size in bytes of an encoder's chunk of published
// fixed cells; a chunk of slice headers holds cellChunk/64 of them.
const cellChunk = 8 << 10

// NewCSVEncoder returns an encoder writing to w. Flush ends the file.
func NewCSVEncoder(w io.Writer) *CSVEncoder {
	return &CSVEncoder{w: bufio.NewWriter(w), row: make([]byte, 0, 256)}
}

// Text appends a text cell.
func (c *CSVEncoder) Text(s string) {
	if !csvNeedsQuotes(s) {
		c.row = append(append(c.row, s...), ',')
		return
	}
	c.row = append(c.row, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		c.row = append(append(c.row, s[:i+1]...), '"')
		s = s[i+1:]
	}
	c.row = append(append(c.row, s...), '"', ',')
}

// csvNeedsQuotes is encoding/csv.Writer's rule for a comma-separated
// field: a quote, CR, LF or comma anywhere, a leading Unicode space, or
// the field `\.`.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\r' || c == '\n' || c == ',' {
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// Int appends an integer cell.
func (c *CSVEncoder) Int(i int) { c.row = append(strconv.AppendInt(c.row, int64(i), 10), ',') }

// Score appends a score cell (FormatScore's bytes).
func (c *CSVEncoder) Score(v float64) { c.row = append(AppendScore(c.row, v), ',') }

// EndRow ends the row and hands it to the buffered writer; an error is
// the underlying writer's.
func (c *CSVEncoder) EndRow() error {
	if n := len(c.row); n > 0 {
		c.row[n-1] = '\n' // the last cell's comma
	} else {
		c.row = append(c.row, '\n')
	}
	_, err := c.w.Write(c.row)
	c.row = c.row[:0]
	return err
}

// Flush writes any buffered rows to the underlying writer.
func (c *CSVEncoder) Flush() error { return c.w.Flush() }

// CellTable holds a set of fixed CSV cells of a domain: the cells of a
// row that depend on its point alone — in the generic layout its domain,
// id, label and dimension values. Each point's are rendered once per
// process, by point ID, and copied into every row after that. The table
// fills per point on first use, so a file of a few points renders those
// alone, and it is safe for concurrent writers: a point two writers
// render at once is the same bytes, published twice.
type CellTable struct {
	render func(c *CSVEncoder, id int, p core.Point) error
	cells  []atomic.Pointer[[]byte] // by point ID
}

// cellTables holds each cell table made so far, by domain name, space and
// layout.
var cellTables sync.Map // cellKey → *CellTable

type cellKey struct {
	name   string
	space  *core.Space
	layout string
}

// Cells is the cell table of domain d for layout, made the first time it
// is asked for with render, which appends the fixed cells of point p,
// whose ID is id, to c's row. layout names the cells render appends: ""
// is the generic layout's, and a CSVLayout names its own, so a wrapper of
// a domain that does not forward its CSVLayout writes the generic cells.
// Every later call for the same domain name, space and layout gets that
// table, whatever its render.
func Cells(d Domain, layout string, render func(c *CSVEncoder, id int, p core.Point) error) *CellTable {
	key := cellKey{d.Name(), d.Space(), layout}
	if t, ok := cellTables.Load(key); ok {
		return t.(*CellTable)
	}
	t, _ := cellTables.LoadOrStore(key, &CellTable{render: render, cells: make([]atomic.Pointer[[]byte], d.Space().Size())})
	return t.(*CellTable)
}

// Fixed appends the fixed cells of point p, whose ID is id, from t. An ID
// that is no position in the domain's space is rendered every time.
func (c *CSVEncoder) Fixed(t *CellTable, id int, p core.Point) error {
	if id < 0 || id >= len(t.cells) {
		return t.render(c, id, p)
	}
	if cells := t.cells[id].Load(); cells != nil {
		c.row = append(c.row, *cells...)
		return nil
	}
	start := len(c.row)
	if err := t.render(c, id, p); err != nil {
		return err
	}
	cells := c.row[start:]
	if len(c.fixed)+len(cells) > cap(c.fixed) {
		c.fixed = make([]byte, 0, max(cellChunk, len(cells)))
	}
	if len(c.refs) == cap(c.refs) {
		c.refs = make([][]byte, 0, cellChunk/64)
	}
	n := len(c.fixed)
	c.fixed = append(c.fixed, cells...)
	c.refs = append(c.refs, c.fixed[n:len(c.fixed):len(c.fixed)])
	t.cells[id].Store(&c.refs[len(c.refs)-1])
	return nil
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
	enc := NewCSVEncoder(w)
	for _, h := range []string{"domain", "id", "point"} {
		enc.Text(h)
	}
	for _, dim := range space.Dimensions {
		enc.Text(dim.Name)
	}
	cols := make([][]float64, 0, 2*len(measures))
	for _, m := range measures {
		enc.Text("raw_" + m)
		enc.Text(m)
		cols = append(cols, s.Raw[m], s.Values[m])
	}
	if err := enc.EndRow(); err != nil {
		return err
	}
	cells := Cells(d, "", func(c *CSVEncoder, id int, p core.Point) error {
		c.Text(d.Name())
		c.Int(id)
		c.Text(d.Label(p))
		for dim, v := range p {
			c.Text(space.Dimensions[dim].Values[v])
		}
		return nil
	})
	for i, p := range s.Points {
		id, err := d.PointID(p)
		if err == nil {
			err = enc.Fixed(cells, id, p)
		}
		if err != nil {
			return fmt.Errorf("dsa: row %d: %w", i, err)
		}
		for _, col := range cols {
			enc.Score(col[i])
		}
		if err := enc.EndRow(); err != nil {
			return err
		}
	}
	return enc.Flush()
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
