// Package exp contains one driver per table and figure of the paper's
// evaluation, parameterised by scale so the same code backs the quick
// benchmarks and the full paper-scale reruns. The experiment index in
// DESIGN.md maps each paper artefact to its driver here.
package exp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/job"
	"repro/internal/pra"
	"repro/internal/stats"
	"repro/internal/swarm"
)

// SweepResult is the assembled swarming scores of a protocol set — the
// raw material of Figures 2-8 and Table 3 — with the points decoded
// into the typed protocols the extractors group by.
type SweepResult struct {
	Scores    *dsa.Scores
	Protocols []design.Protocol // Scores.Points, decoded
}

// NewSweepResult wraps assembled swarming scores, however they were
// obtained (a sweep, a checkpoint, a CSV, a coordinator). It refuses
// another domain's scores and measure vectors that do not cover every
// point (dsa.Scores.Check), so the extractors and WriteCSV index
// without checking.
func NewSweepResult(s *dsa.Scores) (*SweepResult, error) {
	if err := s.Check(pra.Domain()); err != nil {
		return nil, err
	}
	ps, err := pra.Protocols(s.Points)
	if err != nil {
		return nil, err
	}
	return &SweepResult{Scores: s, Protocols: ps}, nil
}

// Sweep runs the PRA quantification over the given protocols (nil =
// the whole 3270-protocol space): job.Run on the file-swarming domain,
// with sharding and checkpointing off.
func Sweep(protos []design.Protocol, cfg dsa.Config) (*SweepResult, error) {
	var pts []core.Point // nil: job.Run sweeps the whole space
	if protos != nil {
		pts = pra.Points(protos)
	}
	s, err := job.Run(context.Background(), pra.Domain(), pts, cfg, job.Options{})
	if err != nil {
		return nil, err
	}
	return NewSweepResult(s)
}

// performance, robustness and aggressiveness are the assembled value
// vectors the extractors read, aligned with Protocols.
func (r *SweepResult) performance() []float64 { return r.Scores.Measure(pra.MeasurePerformance) }
func (r *SweepResult) robustness() []float64  { return r.Scores.Measure(pra.MeasureRobustness) }
func (r *SweepResult) aggressiveness() []float64 {
	return r.Scores.Measure(pra.MeasureAggressiveness)
}

// Fig2 returns the Robustness (x) and Performance (y) coordinates of
// every protocol — the scatter of Figure 2.
func (r *SweepResult) Fig2() (xs, ys []float64) {
	return r.robustness(), r.performance()
}

// Fig3 returns the Figure 3 heat data: for each partner count k (0-9),
// a histogram of normalised Performance over `bins` intervals.
func (r *SweepResult) Fig3(bins int) *stats.Hist2D {
	return r.heatByK(r.performance(), bins)
}

// Fig4 returns the Figure 4 heat data: Robustness by partner count.
func (r *SweepResult) Fig4(bins int) *stats.Hist2D {
	return r.heatByK(r.robustness(), bins)
}

func (r *SweepResult) heatByK(values []float64, bins int) *stats.Hist2D {
	h := stats.NewHist2D(design.MaxPartners+1, bins, 0, 1)
	for i, p := range r.Protocols {
		h.Add(p.K, values[i])
	}
	return h
}

// Fig5 returns the Figure 5 CCDF curves: Robustness grouped by
// stranger policy kind (Periodic, WhenNeeded, Defect). The paper plots
// these three; protocols with no strangers are reported under "None".
func (r *SweepResult) Fig5() map[string][]stats.CCDFPoint {
	groups := map[string][]float64{}
	for i, p := range r.Protocols {
		groups[p.Stranger.String()] = append(groups[p.Stranger.String()], r.robustness()[i])
	}
	out := make(map[string][]stats.CCDFPoint, len(groups))
	for name, vals := range groups {
		out[name] = stats.CCDF(vals)
	}
	return out
}

// GroupPoint is one protocol's coordinates in a grouped strip plot
// (Figures 6 and 7): its group label, robustness, and performance
// (rendered as circle size in the paper).
type GroupPoint struct {
	Group       string
	Robustness  float64
	Performance float64
}

// Fig6 returns Figure 6's strip data: robustness by allocation policy.
func (r *SweepResult) Fig6() []GroupPoint {
	out := make([]GroupPoint, len(r.Protocols))
	for i, p := range r.Protocols {
		out[i] = GroupPoint{p.Allocation.String(), r.robustness()[i], r.performance()[i]}
	}
	return out
}

// Fig7 returns Figure 7's strip data: robustness by ranking function.
func (r *SweepResult) Fig7() []GroupPoint {
	out := make([]GroupPoint, len(r.Protocols))
	for i, p := range r.Protocols {
		out[i] = GroupPoint{p.Ranking.String(), r.robustness()[i], r.performance()[i]}
	}
	return out
}

// Fig8 returns the Robustness/Aggressiveness scatter and their Pearson
// correlation (the paper reports r = 0.96).
func (r *SweepResult) Fig8() (xs, ys []float64, pearson float64, err error) {
	xs, ys = r.robustness(), r.aggressiveness()
	pearson, err = stats.Pearson(xs, ys)
	return xs, ys, pearson, err
}

// Table3 fits the paper's multiple linear regression for each PRA
// measure over the protocol set. Regressors follow Table 3: the
// standardised logs of k and h (log1p, since both include 0), dummy
// variables for B2, B3 (baseline B1/none), C2 (baseline C1), I2-I6
// (baseline I1) and R2, R3 (baseline R1).
//
// A design dimension that every protocol shares (at stride 30 every
// sampled protocol has one allocation) leaves its regressors constant;
// the error then names the dimension and its columns instead of a bare
// stats.ErrRankDeficient, which it wraps.
func (r *SweepResult) Table3() (performance, robustness, aggressiveness *stats.OLSResult, err error) {
	if held := heldDimensions(r.Scores.Points); len(held) > 0 {
		return nil, nil, nil, fmt.Errorf("exp: Table3: all %d protocols share one %s, so those columns are constant; sample a set where every dimension varies: %w",
			len(r.Protocols), strings.Join(held, " and one "), stats.ErrRankDeficient)
	}
	n := len(r.Protocols)
	logK := make([]float64, n)
	logH := make([]float64, n)
	for i, p := range r.Protocols {
		logK[i] = math.Log1p(float64(p.K))
		logH[i] = math.Log1p(float64(p.H))
	}
	logK = stats.Standardize(logK)
	logH = stats.Standardize(logH)

	fit := func(y []float64) (*stats.OLSResult, error) {
		b := stats.NewDesignBuilder()
		b.AddNumeric("log(k~)")
		b.AddNumeric("log(h~)")
		b.AddDummies("B2", "B3")
		b.AddDummies("C2")
		b.AddDummies("I2", "I3", "I4", "I5", "I6")
		b.AddDummies("R2", "R3")
		for i, p := range r.Protocols {
			row := []float64{
				logK[i], logH[i],
				dummy(p.Stranger == design.WhenNeeded), dummy(p.Stranger == design.DefectStrangers),
				dummy(p.Candidate == design.TF2T),
				dummy(p.Ranking == design.Slowest), dummy(p.Ranking == design.Proximity),
				dummy(p.Ranking == design.Adaptive), dummy(p.Ranking == design.Loyal),
				dummy(p.Ranking == design.RandomRank),
				dummy(p.Allocation == design.PropShare), dummy(p.Allocation == design.Freeride),
			}
			b.AddRow(y[i], row...)
		}
		return b.Fit()
	}
	if performance, err = fit(r.performance()); err != nil {
		return nil, nil, nil, fmt.Errorf("exp: Table3 performance: %w", err)
	}
	if robustness, err = fit(r.robustness()); err != nil {
		return nil, nil, nil, fmt.Errorf("exp: Table3 robustness: %w", err)
	}
	if aggressiveness, err = fit(r.aggressiveness()); err != nil {
		return nil, nil, nil, fmt.Errorf("exp: Table3 aggressiveness: %w", err)
	}
	return performance, robustness, aggressiveness, nil
}

// table3Columns names the Table 3 regressors each swarming dimension
// contributes.
var table3Columns = map[string]string{
	"stranger": "B2, B3", "h": "log(h~)", "candidates": "C2",
	"ranking": "I2-I6", "k": "log(k~)", "allocation": "R2, R3",
}

// heldDimensions lists each dimension that takes one value over pts, as
// "name (value; columns ...)".
func heldDimensions(pts []core.Point) []string {
	if len(pts) == 0 {
		return nil
	}
	var held []string
	for d, dim := range pra.Domain().Space().Dimensions {
		same := true
		for _, p := range pts[1:] {
			same = same && p[d] == pts[0][d]
		}
		if same {
			held = append(held, fmt.Sprintf("%s (%s; columns %s)", dim.Name, dim.Values[pts[0][d]], table3Columns[dim.Name]))
		}
	}
	return held
}

func dummy(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Validate9010 re-runs the robustness tournament with the protocol
// under test at 90% of the population (invaders at 10%) and returns
// both robustness vectors and their Pearson correlation — the paper's
// §4.3.2 validation (r = 0.97).
func (r *SweepResult) Validate9010(cfg dsa.Config) (rob5050, rob9010 []float64, pearson float64, err error) {
	rob9010, err = pra.TournamentScores(r.Scores.Points, pra.Domain().SampleOpponents(cfg), 0.9, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	pearson, err = stats.Pearson(r.robustness(), rob9010)
	if err != nil {
		return nil, nil, 0, err
	}
	return r.robustness(), rob9010, pearson, nil
}

// ChurnPoint reports mean normalised performance per partner count at
// one churn rate — the §4.4 churn sensitivity check.
type ChurnPoint struct {
	Churn     float64
	MeanPerfK []float64 // indexed by k (0..MaxPartners)
}

// ChurnSweep measures homogeneous performance across the protocol set
// at the given churn rates and aggregates mean normalised performance
// per partner count. The paper's claim: low-k protocols stay on top.
func ChurnSweep(protos []design.Protocol, rates []float64, cfg dsa.Config) ([]ChurnPoint, error) {
	if protos == nil {
		var err error
		if protos, err = pra.Protocols(pra.Domain().Space().Enumerate()); err != nil {
			return nil, err
		}
	}
	pts := pra.Points(protos)
	out := make([]ChurnPoint, 0, len(rates))
	for _, rate := range rates {
		c := cfg
		c.Churn = rate
		raw, err := pra.PerformanceSweep(pts, c)
		if err != nil {
			return nil, err
		}
		norm := stats.MinMaxNormalize(raw)
		byK := make([][]float64, design.MaxPartners+1)
		for i, p := range protos {
			byK[p.K] = append(byK[p.K], norm[i])
		}
		pt := ChurnPoint{Churn: rate, MeanPerfK: make([]float64, design.MaxPartners+1)}
		for k, perf := range byK {
			if len(perf) > 0 {
				pt.MeanPerfK[k] = stats.Mean(perf)
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// Fig9Fractions are the swarm compositions of Figure 9.
var Fig9Fractions = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// Fig9a runs Loyal-When-needed vs BitTorrent (Figure 9a).
func Fig9a(n, runs int, cfg swarm.Config) ([]swarm.MixPoint, error) {
	return swarm.EncounterSeries(swarm.ClientLoyal, swarm.ClientBT, Fig9Fractions, n, runs, cfg)
}

// Fig9b runs Birds vs BitTorrent (Figure 9b).
func Fig9b(n, runs int, cfg swarm.Config) ([]swarm.MixPoint, error) {
	return swarm.EncounterSeries(swarm.ClientBirds, swarm.ClientBT, Fig9Fractions, n, runs, cfg)
}

// Fig9c runs Loyal-When-needed vs Birds (Figure 9c).
func Fig9c(n, runs int, cfg swarm.Config) ([]swarm.MixPoint, error) {
	return swarm.EncounterSeries(swarm.ClientLoyal, swarm.ClientBirds, Fig9Fractions, n, runs, cfg)
}

// Fig10Clients is the protocol lineup of Figure 10, in the paper's
// left-to-right order.
var Fig10Clients = []swarm.Client{
	swarm.ClientSortS, swarm.ClientRandom, swarm.ClientLoyal, swarm.ClientBT, swarm.ClientBirds,
}

// Fig10 measures homogeneous swarms for every client variant.
func Fig10(n, runs int, cfg swarm.Config) (map[swarm.Client]stats.MeanCI, error) {
	out := make(map[swarm.Client]stats.MeanCI, len(Fig10Clients))
	for _, c := range Fig10Clients {
		ci, err := swarm.Homogeneous(c, n, runs, cfg)
		if err != nil {
			return nil, err
		}
		out[c] = ci
	}
	return out, nil
}

// NashReport bundles the Section 2 analytical results.
type NashReport struct {
	BTVerdict    analytic.Verdict // Birds deviation in a BT swarm
	BirdsVerdict analytic.Verdict // BT deviation in a Birds swarm
	Example      Params           // one worked example configuration
}

// Params is a readable alias for the analytic model parameters.
type Params = analytic.Params

// Nash evaluates the Appendix equilibrium claims over the default grid.
func Nash() (NashReport, error) {
	grid := analytic.DefaultGrid()
	bt, err := analytic.CheckBTNash(grid)
	if err != nil {
		return NashReport{}, err
	}
	birds, err := analytic.CheckBirdsNash(grid)
	if err != nil {
		return NashReport{}, err
	}
	return NashReport{
		BTVerdict:    bt,
		BirdsVerdict: birds,
		Example:      Params{NA: 20, NB: 15, NC: 15, Ur: 4},
	}, nil
}
