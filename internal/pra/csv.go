package pra

import (
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dsa"
)

// The swarming domain's CSV is the original dsa-sweep column set — the
// figure and table extractors' input, older than the generic dsa layout —
// so the domain is a dsa.CSVLayout. The layout has one robustness and one
// aggressiveness column, which are both the raw and the assembled value;
// a header-only file (an empty evaluated panel) is a valid round trip, as
// in the generic layout, and cells are dsa's.
var (
	csvScoreColumns = []string{"raw_kbps", "performance", "robustness", "aggressiveness"}
	csvHeader       = append([]string{"id", "protocol", "stranger", "h", "candidates", "ranking", "k", "allocation"},
		csvScoreColumns...)
)

// csvLayout names the cell table of csvCells.
const csvLayout = "pra.csvCells"

// csvCells appends a row's fixed cells: id to allocation.
func csvCells(c *dsa.CSVEncoder, id int, pt core.Point) error {
	p, err := FromPoint(pt)
	if err != nil {
		return err
	}
	c.Int(id)
	c.Text(p.String())
	c.Text(p.Stranger.String())
	c.Int(p.H)
	c.Text(p.Candidate.String())
	c.Text(p.Ranking.String())
	c.Int(p.K)
	c.Text(p.Allocation.String())
	return nil
}

func (d swarmingDomain) WriteCSV(w io.Writer, s *dsa.Scores) error {
	enc := dsa.NewCSVEncoder(w)
	for _, h := range csvHeader {
		enc.Text(h)
	}
	if err := enc.EndRow(); err != nil {
		return err
	}
	cells := dsa.Cells(d, csvLayout, csvCells)
	raw, measures := s.Raw[MeasurePerformance], base.Measures()
	for i, p := range s.Points {
		id, err := base.PointID(p)
		if err == nil {
			err = enc.Fixed(cells, id, p)
		}
		if err != nil {
			return err
		}
		enc.Score(raw[i])
		for _, m := range measures {
			enc.Score(s.Values[m][i])
		}
		if err := enc.EndRow(); err != nil {
			return err
		}
	}
	return enc.Flush()
}

func (swarmingDomain) ReadCSV(r io.Reader) (*dsa.Scores, error) {
	cols := csvScoreColumns
	t, err := dsa.ReadCSVTable(r, append([]string{"protocol"}, cols...)...)
	if err != nil {
		return nil, err
	}
	protos := make([]design.Protocol, len(t.Rows))
	vals := map[string][]float64{}
	for _, c := range cols {
		vals[c] = make([]float64, len(protos))
	}
	for i := range t.Rows {
		if protos[i], err = design.Parse(t.Cell(i, "protocol")); err != nil {
			return nil, t.Errorf(i, "%w", err)
		}
		for _, c := range cols {
			if vals[c][i], err = t.Score(i, c); err != nil {
				return nil, err
			}
		}
	}
	return &dsa.Scores{
		Domain: DomainName,
		Points: Points(protos),
		Raw: map[string][]float64{
			MeasurePerformance:    vals["raw_kbps"],
			MeasureRobustness:     slices.Clone(vals[MeasureRobustness]),
			MeasureAggressiveness: slices.Clone(vals[MeasureAggressiveness]),
		},
		Values: map[string][]float64{
			MeasurePerformance:    vals[MeasurePerformance],
			MeasureRobustness:     vals[MeasureRobustness],
			MeasureAggressiveness: vals[MeasureAggressiveness],
		},
	}, nil
}
