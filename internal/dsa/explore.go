package dsa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
)

// Weights blends a domain's measures into a single exploration
// objective: the score of a point is Σ weights[m] · raw(m, point).
// Any subset of the domain's measures may be weighted; the paper's
// Section 7 explorers then climb the blend — e.g. {"performance": 1}
// reproduces the pure-performance search, while adding a robustness
// weight explores the P/R trade-off frontier heuristically.
//
// Weights apply to raw measure values (whole-set normalisation needs
// the whole set, which an explorer never has), so pick weights on the
// measures' natural scales.
type Weights map[string]float64

// Objective builds a core.Objective for the domain from a measure-
// weight blend. The opponent panel is sampled once, so every evaluation
// is played against the same opponents and results are deterministic.
// Explorers memoise on top of this (see core.HillClimb), so a point is
// simulated at most once per search.
//
// With a non-nil cache, every raw (measure, point) score is looked up
// before it is simulated and recorded after — so a revisited neighbour
// is free not just within one search (core's explorers already memoise
// that) but across searches, restarts and processes sharing a
// persistent store. Concurrent evaluations of one score deduplicate
// through the cache's singleflight. The blend weights are deliberately
// not part of the cache key: the cache holds raw measure values, so
// one warmed cache serves every weighting of the same measures.
func Objective(d Domain, w Weights, cfg Config, c ScoreCache) (core.Objective, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("dsa: empty weight vector for domain %q", d.Name())
	}
	measures := d.Measures()
	known := make(map[string]bool, len(measures))
	for _, m := range measures {
		known[m] = true
	}
	for m := range w {
		if !known[m] {
			return nil, fmt.Errorf("dsa: domain %q has no measure %q (measures: %v)", d.Name(), m, measures)
		}
	}
	opponents := d.SampleOpponents(cfg)
	var keyer *ScoreKeyer
	if c != nil {
		var err error
		if keyer, err = NewScoreKeyer(d, opponents, cfg); err != nil {
			return nil, err
		}
	}
	rawScore := func(m string, p core.Point) (float64, error) {
		compute := func() (float64, error) {
			vals, err := d.ScoreSlice(m, []core.Point{p}, opponents, cfg)
			if err != nil {
				return 0, err
			}
			return vals[0], nil
		}
		if c == nil {
			return compute()
		}
		id, err := d.PointID(p)
		if err != nil {
			return 0, err
		}
		return c.GetOrCompute(keyer.Key(m, id), compute)
	}
	return func(p core.Point) (float64, error) {
		var sum float64
		// Iterate in canonical measure order, not map order: float
		// addition order must not vary between runs.
		for _, m := range measures {
			wt, ok := w[m]
			if !ok || wt == 0 {
				continue
			}
			v, err := rawScore(m, p)
			if err != nil {
				return 0, err
			}
			sum += wt * v
		}
		return sum, nil
	}, nil
}

// HillClimb runs the Section 7 steepest-ascent explorer on a domain
// against a measure-weight blend. It returns the best evaluation and
// the number of objective calls (points actually simulated). A non-nil
// cache memoises raw scores across searches and processes (see
// Objective); results are identical with and without one.
//
// rec (nil = tracing off) journals an "explore" root span for the whole
// search and a "restart" child per restart (steps, fresh objective
// calls, converged score), chained in front of the caller's own
// hcfg.OnRestart. Observation only: same seeds, same memoisation, same
// result and call count with and without a recorder.
func HillClimb(d Domain, w Weights, cfg Config, hcfg core.HillClimbConfig, c ScoreCache, rec *obs.Recorder) (core.Evaluation, int, error) {
	obj, err := Objective(d, w, cfg, c)
	if err != nil {
		return core.Evaluation{}, 0, err
	}
	root := rec.Start(0, "explore").
		Str("domain", d.Name()).
		Str("explorer", "hillclimb").
		Int("restarts", int64(hcfg.Restarts))
	next, prev := sinceLast(rec, root, "restart"), hcfg.OnRestart
	hcfg.OnRestart = func(restart, steps, calls int, got core.Evaluation) {
		next().Int("restart", int64(restart)).
			Int("steps", int64(steps)).
			Int("calls", int64(calls)).
			Float("score", got.Score).
			End()
		if prev != nil {
			prev(restart, steps, calls, got)
		}
	}
	best, calls, err := core.HillClimb(d.Space(), obj, hcfg)
	return endExplore(root, best, calls, err)
}

// Evolve runs the Section 7 evolutionary explorer on a domain against a
// measure-weight blend; cache and rec as for HillClimb, the root span's
// children being one "generation" span per generation (fresh objective
// calls, generation best).
func Evolve(d Domain, w Weights, cfg Config, ecfg core.EvolveConfig, c ScoreCache, rec *obs.Recorder) (core.Evaluation, int, error) {
	obj, err := Objective(d, w, cfg, c)
	if err != nil {
		return core.Evaluation{}, 0, err
	}
	root := rec.Start(0, "explore").
		Str("domain", d.Name()).
		Str("explorer", "evolve").
		Int("generations", int64(ecfg.Generations)).
		Int("population", int64(ecfg.Population))
	next, prev := sinceLast(rec, root, "generation"), ecfg.OnGeneration
	ecfg.OnGeneration = func(gen, calls int, gbest core.Evaluation) {
		next().Int("generation", int64(gen)).
			Int("calls", int64(calls)).
			Float("score", gbest.Score).
			End()
		if prev != nil {
			prev(gen, calls, gbest)
		}
	}
	best, calls, err := core.Evolve(d.Space(), obj, ecfg)
	return endExplore(root, best, calls, err)
}

// sinceLast turns a callback-driven seam into spans: each call of the
// returned function opens a span named name under root covering the
// time since the previous call (the first: since sinceLast itself).
func sinceLast(rec *obs.Recorder, root *obs.Span, name string) func() *obs.Span {
	last := rec.Now()
	return func() *obs.Span {
		now := rec.Now()
		s := rec.Interval(root.ID(), name, last, now)
		last = now
		return s
	}
}

// endExplore journals a finished search's root span (dropped on error)
// and passes the explorer's results through.
func endExplore(root *obs.Span, best core.Evaluation, calls int, err error) (core.Evaluation, int, error) {
	if err != nil {
		root.Drop()
		return best, calls, err
	}
	root.Int("calls", int64(calls)).Float("best", best.Score).End()
	return best, calls, nil
}
