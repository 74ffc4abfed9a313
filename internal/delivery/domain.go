package delivery

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/stats"
)

// DomainName is the delivery domain's registry name.
const DomainName = "delivery"

// Measure kinds of the delivery solution concept. Robustness leads the
// canonical order: it is the domain's headline quantity (the paper's
// point that a design is only good if it survives failure), it is
// already oriented higher-is-better in raw form, and the explorers'
// default objective is the first measure.
const (
	// MeasureRobustness is the completion-rate degradation under
	// churn/failure stress: completions in the stress regime (permanent
	// peer departures, mirror at half rate) divided by completions in
	// the nominal regime, clamped to [0,1]. 1 = no degradation.
	MeasureRobustness = "robustness"
	// MeasureMeanTime is the mean completion time in seconds over the
	// nominal runs (censored runs count as the horizon).
	MeasureMeanTime = "mean_time"
	// MeasureP95Time is the 95th-percentile completion time in seconds
	// over the same nominal runs.
	MeasureP95Time = "p95_time"
	// MeasureMirrorOffload is the fraction of delivered bytes served by
	// the swarm rather than the mirror — how much load the strategy
	// takes off the origin. 1 = pure P2P, 0 = pure mirror.
	MeasureMirrorOffload = "mirror_offload"
)

func init() { dsa.Register(Domain()) }

// Domain returns the content-delivery orchestration design space as a
// dsa.Domain: the third registered vertical, and the first whose
// measures quantify adversarial robustness. Implementing the interface
// is all it takes — sharding, resume, the grid, the score cache and
// the explorers run it through the generic seam unchanged.
func Domain() dsa.Domain { return domainImpl{} }

type domainImpl struct{}

// space and its point index are shared, built once.
var (
	domainOnce  sync.Once
	domainSpace *core.Space
	domainIndex map[string]int // point key → enumeration index (the stable ID)
)

func domainState() (*core.Space, map[string]int) {
	domainOnce.Do(func() {
		domainSpace = Space()
		pts := domainSpace.Enumerate()
		domainIndex = make(map[string]int, len(pts))
		for i, p := range pts {
			domainIndex[p.Key()] = i
		}
	})
	return domainSpace, domainIndex
}

func (domainImpl) Name() string { return DomainName }

func (domainImpl) Space() *core.Space {
	s, _ := domainState()
	return s
}

// PointID is the point's position in the canonical enumeration — the
// stable ID persisted in checkpoint specs.
func (domainImpl) PointID(p core.Point) (int, error) {
	_, index := domainState()
	id, ok := index[p.Key()]
	if !ok {
		return 0, fmt.Errorf("delivery: point %v is not in the delivery space", p)
	}
	return id, nil
}

func (domainImpl) PointByID(id int) (core.Point, error) {
	s, _ := domainState()
	pts := s.Enumerate()
	if id < 0 || id >= len(pts) {
		return nil, fmt.Errorf("delivery: point ID %d out of range [0,%d)", id, len(pts))
	}
	return pts[id], nil
}

func (domainImpl) Label(p core.Point) string {
	s, err := FromPoint(p)
	if err != nil {
		return p.Key()
	}
	return s.String()
}

func (domainImpl) Measures() []string {
	return []string{MeasureRobustness, MeasureMeanTime, MeasureP95Time, MeasureMirrorOffload}
}

// DefaultConfig maps the generic scale onto the delivery simulator:
// Peers is the swarm size, Rounds the per-download horizon in seconds,
// PerfRuns the downloads averaged per (point, regime), Churn the
// baseline identity-churn rate. The domain has no tournament, so
// EncounterRuns/Opponents are inert (kept at their neutral values to
// satisfy Config.Validate).
func (domainImpl) DefaultConfig(preset string) (dsa.Config, error) {
	switch preset {
	case "quick":
		// Seconds for the full 576-strategy space on a laptop.
		return dsa.Config{Peers: 12, Rounds: 400, PerfRuns: 3, EncounterRuns: 1, Seed: 1}, nil
	case "paper":
		// DefaultOptions scale with tight run averaging.
		return dsa.Config{Peers: 40, Rounds: 1800, PerfRuns: 25, EncounterRuns: 1, Seed: 1}, nil
	}
	return dsa.Config{}, fmt.Errorf("delivery: unknown preset %q (want quick or paper)", preset)
}

// SampleOpponents is empty: delivery has no tournament measure — the
// adversaries live inside the design space's scenario dimension.
func (domainImpl) SampleOpponents(cfg dsa.Config) []core.Point { return nil }

// seed discriminators, in the spirit of pra's runSeed kinds. Nominal
// and stress regimes draw disjoint seed streams; every time/offload
// statistic derives from the same nominal runs so the measures are
// coherent views of one experiment.
const (
	seedKindNominal = 11
	seedKindStress  = 12
)

// simOptions maps the generic scale onto one download's options; file,
// chunk, mirror and client scales are domain constants (DefaultOptions).
func simOptions(cfg dsa.Config, seed int64, stress bool) Options {
	opt := DefaultOptions()
	opt.Peers = cfg.Peers
	opt.MaxSeconds = cfg.Rounds
	opt.Churn = cfg.Churn
	opt.Seed = seed
	opt.Stress = stress
	return opt
}

// pointRuns runs PerfRuns downloads of one point in the given regime.
// Seeds derive from the point's stable ID and the run index — never
// from slice position — so any partition of a sweep recombines into
// byte-identical results.
func (d domainImpl) pointRuns(pt core.Point, cfg dsa.Config, kind int, stress bool) ([]Result, error) {
	s, err := FromPoint(pt)
	if err != nil {
		return nil, err
	}
	id, err := d.PointID(pt)
	if err != nil {
		return nil, err
	}
	out := make([]Result, cfg.PerfRuns)
	for r := 0; r < cfg.PerfRuns; r++ {
		res, err := Run(s, simOptions(cfg, dsa.TaskSeed(cfg.Seed, id, 0, r, kind), stress))
		if err != nil {
			return nil, err
		}
		out[r] = res
	}
	return out, nil
}

// ScoreSlice is the one-measure case of ScoreSlices.
func (d domainImpl) ScoreSlice(measure string, pts, opponents []core.Point, cfg dsa.Config) ([]float64, error) {
	out, err := d.ScoreSlices([]string{measure}, pts, opponents, cfg)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// measureValue returns the function that reads one measure off a
// point's runs: every measure is a statistic of the nominal runs, and
// robustness alone also reads the stress runs.
func measureValue(measure string) (func(nominal, stressed []Result) float64, bool) {
	switch measure {
	case MeasureMeanTime:
		return func(nominal, _ []Result) float64 {
			sum := 0.0
			for _, r := range nominal {
				sum += float64(r.Seconds)
			}
			return sum / float64(len(nominal))
		}, true
	case MeasureP95Time:
		return func(nominal, _ []Result) float64 {
			times := make([]float64, len(nominal))
			for i, r := range nominal {
				times[i] = float64(r.Seconds)
			}
			return stats.Quantile(times, 0.95)
		}, true
	case MeasureMirrorOffload:
		return func(nominal, _ []Result) float64 {
			peer, total := 0.0, 0.0
			for _, r := range nominal {
				peer += r.PeerKiB
				total += r.PeerKiB + r.MirrorKiB
			}
			if total == 0 {
				return 0
			}
			return peer / total
		}, true
	case MeasureRobustness:
		return func(nominal, stressed []Result) float64 {
			nomDone, strDone := 0, 0
			for _, r := range nominal {
				if r.Completed {
					nomDone++
				}
			}
			for _, r := range stressed {
				if r.Completed {
					strDone++
				}
			}
			if nomDone == 0 {
				// A strategy that cannot complete even nominally has
				// nothing to degrade from.
				return 0
			}
			return min(float64(strDone)/float64(nomDone), 1)
		}, true
	}
	return nil, false
}

// ScoreSlices implements dsa.JointScorer: the four measures are views
// of one experiment, so a point's PerfRuns nominal downloads run once
// however many measures are asked for, and its PerfRuns stress
// downloads run only when robustness is among them — 2·PerfRuns
// downloads for all four measures of a point, against 5·PerfRuns for
// four ScoreSlice calls. Run seeds depend on (point ID, run, regime)
// alone, so each vector is bit-equal to its ScoreSlice.
func (d domainImpl) ScoreSlices(measures []string, pts, _ []core.Point, cfg dsa.Config) ([][]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	values := make([]func(nominal, stressed []Result) float64, len(measures))
	for k, m := range measures {
		var ok bool
		if values[k], ok = measureValue(m); !ok {
			return nil, fmt.Errorf("delivery: unknown measure %q", m)
		}
	}
	needStress := slices.Contains(measures, MeasureRobustness)
	out := make([][]float64, len(measures))
	for k := range out {
		out[k] = make([]float64, len(pts))
	}
	errs := make([]error, len(pts))
	dsa.ParallelFor(len(pts), cfg.Parallelism(), func(i int) {
		nominal, err := d.pointRuns(pts[i], cfg, seedKindNominal, false)
		var stressed []Result
		if err == nil && needStress {
			stressed, err = d.pointRuns(pts[i], cfg, seedKindStress, true)
		}
		if err != nil {
			errs[i] = err
			return
		}
		for k, value := range values {
			out[k][i] = value(nominal, stressed)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Assemble applies the whole-set step. Raw keeps every measure as
// ScoreSlice produced it (seconds for the times). Values orients all
// four measures higher-is-better on [0,1]: robustness and offload are
// already such fractions and pass through; the two completion times
// get an inverted min-max normalisation over the evaluated set (1 =
// fastest in set, 0 = slowest — the paper's performance normalisation,
// flipped because small times are good).
func (domainImpl) Assemble(pts []core.Point, raw map[string][]float64) (*dsa.Scores, error) {
	for _, m := range (domainImpl{}).Measures() {
		if len(raw[m]) != len(pts) {
			return nil, fmt.Errorf("delivery: %s has %d values, want %d", m, len(raw[m]), len(pts))
		}
	}
	return &dsa.Scores{
		Domain: DomainName,
		Points: pts,
		Raw: map[string][]float64{
			MeasureRobustness:    slices.Clone(raw[MeasureRobustness]),
			MeasureMeanTime:      slices.Clone(raw[MeasureMeanTime]),
			MeasureP95Time:       slices.Clone(raw[MeasureP95Time]),
			MeasureMirrorOffload: slices.Clone(raw[MeasureMirrorOffload]),
		},
		Values: map[string][]float64{
			MeasureRobustness:    slices.Clone(raw[MeasureRobustness]),
			MeasureMeanTime:      invertedMinMax(raw[MeasureMeanTime]),
			MeasureP95Time:       invertedMinMax(raw[MeasureP95Time]),
			MeasureMirrorOffload: slices.Clone(raw[MeasureMirrorOffload]),
		},
	}, nil
}

// invertedMinMax min-max normalises and flips orientation (1 = the
// set's minimum). The degenerate all-equal span keeps MinMaxNormalize's
// all-zeros convention rather than flipping to all-ones.
func invertedMinMax(xs []float64) []float64 {
	norm := stats.MinMaxNormalize(xs)
	if len(xs) == 0 || stats.Max(xs)-stats.Min(xs) <= 0 {
		return norm
	}
	for i := range norm {
		norm[i] = 1 - norm[i]
	}
	return norm
}
