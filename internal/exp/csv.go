package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/pra"
)

// WriteDomainCSV writes assembled generic scores in the domain's
// canonical CSV layout: the swarming domain keeps the original
// dsa-sweep column set (the figure/table extractors' input), every
// other domain uses the generic dsa layout. Every tool — dsa-sweep,
// dsa-grid, dsa-report merge, the grid results API — goes through this
// one function, so a domain's CSV is interchangeable regardless of
// which engine produced it.
func WriteDomainCSV(w io.Writer, d dsa.Domain, s *dsa.Scores) error {
	if d.Name() != pra.DomainName {
		return dsa.WriteCSV(w, d, s)
	}
	res, err := NewSweepResult(s)
	if err != nil {
		return err
	}
	return res.WriteCSV(w)
}

// ReadDomainCSV is the inverse of WriteDomainCSV.
func ReadDomainCSV(r io.Reader, d dsa.Domain) (*dsa.Scores, error) {
	if d.Name() != pra.DomainName {
		return dsa.ReadCSV(r, d)
	}
	res, err := ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// csvHeader is the column layout shared by WriteCSV and ReadCSV (and
// therefore by the dsa-sweep and dsa-report tools).
var csvHeader = []string{
	"id", "protocol", "stranger", "h", "candidates", "ranking", "k",
	"allocation", "raw_kbps", "performance", "robustness", "aggressiveness",
}

// WriteCSV serialises a sweep result in the dsa-sweep CSV format.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	raw := r.Scores.Raw[pra.MeasurePerformance]
	perf, rob, agg := r.performance(), r.robustness(), r.aggressiveness()
	for i, p := range r.Protocols {
		row := []string{
			strconv.Itoa(design.ID(p)), p.String(), p.Stranger.String(),
			strconv.Itoa(p.H), p.Candidate.String(), p.Ranking.String(),
			strconv.Itoa(p.K), p.Allocation.String(),
			fmt.Sprintf("%.6f", raw[i]),
			fmt.Sprintf("%.6f", perf[i]),
			fmt.Sprintf("%.6f", rob[i]),
			fmt.Sprintf("%.6f", agg[i]),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dsa-sweep CSV back into a SweepResult. Columns are
// located by header name, so extra columns and reordering are fine. The
// layout has one robustness and one aggressiveness column, which are
// both the raw and the assembled value; a header-only file (an empty
// evaluated panel) is a valid round trip, as in dsa.ReadCSV.
func ReadCSV(r io.Reader) (*SweepResult, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("exp: CSV has no header row")
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	cols := []string{"raw_kbps", "performance", "robustness", "aggressiveness"}
	for _, need := range append([]string{"protocol"}, cols...) {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("exp: CSV column %q missing", need)
		}
	}
	protos := make([]design.Protocol, len(rows)-1)
	vals := map[string][]float64{}
	for _, c := range cols {
		vals[c] = make([]float64, len(protos))
	}
	for i, row := range rows[1:] {
		if protos[i], err = design.Parse(row[col["protocol"]]); err != nil {
			return nil, fmt.Errorf("exp: row %d: %w", i+2, err)
		}
		for _, c := range cols {
			if vals[c][i], err = strconv.ParseFloat(row[col[c]], 64); err != nil {
				return nil, fmt.Errorf("exp: row %d: bad %s: %w", i+2, c, err)
			}
		}
	}
	return NewSweepResult(&dsa.Scores{
		Domain: pra.DomainName,
		Points: pra.Points(protos),
		Raw: map[string][]float64{
			pra.MeasurePerformance:    vals["raw_kbps"],
			pra.MeasureRobustness:     slices.Clone(vals["robustness"]),
			pra.MeasureAggressiveness: slices.Clone(vals["aggressiveness"]),
		},
		Values: map[string][]float64{
			pra.MeasurePerformance:    vals["performance"],
			pra.MeasureRobustness:     vals["robustness"],
			pra.MeasureAggressiveness: vals["aggressiveness"],
		},
	})
}
