package delivery

import (
	"fmt"
	"slices"

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
func Domain() dsa.Domain { return domainImpl{base} }

type domainImpl struct{ *dsa.Base }

// base declares the domain and maps the generic scale onto the delivery
// simulator: Peers is the swarm size, Rounds the per-download horizon in
// seconds, PerfRuns the downloads averaged per (point, regime), Churn
// the baseline identity-churn rate. The domain has no tournament, so
// EncounterRuns/Opponents are inert (kept at their neutral values to
// satisfy Config.Validate). quick is seconds for the full 576-strategy
// space on a laptop; paper is DefaultOptions scale with tight run
// averaging.
//
// Raw keeps every measure as ScoreSlice produced it (seconds for the
// times). Values orients all four higher-is-better on [0,1]: robustness
// and offload are already such fractions; the two completion times get
// the paper's performance normalisation, flipped because small times
// are good (1 = fastest in set, 0 = slowest).
var base = dsa.NewBase(DomainName, Space(),
	dsa.Config{Peers: 12, Rounds: 400, PerfRuns: 3, EncounterRuns: 1, Seed: 1},
	dsa.Config{Peers: 40, Rounds: 1800, PerfRuns: 25, EncounterRuns: 1, Seed: 1},
	dsa.Measure{Name: MeasureRobustness},
	dsa.Measure{Name: MeasureMeanTime, Norm: dsa.InvertedMinMax},
	dsa.Measure{Name: MeasureP95Time, Norm: dsa.InvertedMinMax},
	dsa.Measure{Name: MeasureMirrorOffload},
)

func (domainImpl) Label(p core.Point) string {
	s, err := FromPoint(p)
	if err != nil {
		return p.Key()
	}
	return s.String()
}

// SampleOpponents is empty: delivery has no tournament measure — the
// adversaries live inside the design space's scenario dimension.
func (domainImpl) SampleOpponents(cfg dsa.Config) []core.Point { return nil }

// seed discriminators, in the spirit of pra's seed kinds. Nominal
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

// downloads runs the PerfRuns downloads of one strategy in one regime.
func downloads(s Strategy, id int, cfg dsa.Config, kind int, stress bool) ([]Result, error) {
	return dsa.HomogeneousRuns(cfg, id, kind, func(seed int64) (Result, error) {
		return Run(s, simOptions(cfg, seed, stress))
	})
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
		return func(nominal, _ []Result) float64 { return stats.Mean(seconds(nominal)) }, true
	case MeasureP95Time:
		return func(nominal, _ []Result) float64 { return stats.Quantile(seconds(nominal), 0.95) }, true
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

// seconds lists the runs' completion times.
func seconds(runs []Result) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = float64(r.Seconds)
	}
	return out
}

// ScoreSlices implements dsa.JointScorer: the four measures are views
// of one experiment, so a point's PerfRuns nominal downloads run once
// however many measures are asked for, and its PerfRuns stress
// downloads run only when robustness is among them — 2·PerfRuns
// downloads for all four measures of a point, against 5·PerfRuns for
// four ScoreSlice calls. Run seeds depend on (point ID, run, regime)
// alone, so each vector is bit-equal to its ScoreSlice.
func (d domainImpl) ScoreSlices(measures []string, pts, _ []core.Point, cfg dsa.Config) ([][]float64, error) {
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
	err := dsa.ForEach(pts, d.PointID, cfg, func(i int, pt core.Point, id int) error {
		s, err := FromPoint(pt)
		if err != nil {
			return err
		}
		nominal, err := downloads(s, id, cfg, seedKindNominal, false)
		var stressed []Result
		if err == nil && needStress {
			stressed, err = downloads(s, id, cfg, seedKindStress, true)
		}
		if err != nil {
			return err
		}
		for k, value := range values {
			out[k][i] = value(nominal, stressed)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
