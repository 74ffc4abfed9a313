package job

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// This file holds the paper's Section 7 explorer — hill climbing for
// spaces too large to sweep — as a run of small sweeps: each step of a
// search collects the points it has not scored yet (a restart's start,
// every neighbour of the current point) and scores them with one
// ExecTasks call, so cache lookup, partial-hit recombination, joint
// scoring and the worker pool are the ones every sweep, shard and grid
// worker uses. Seeds derive from point identity, so how a search happens
// to batch its points changes speed only. TestExplorerRegret
// (testdata/regret.golden.json) measures it against random sampling at
// equal budgets; an evolutionary search that stood beside it was deleted
// on that table.

// Weights blends a domain's measures into a single exploration
// objective: the score of a point is Σ weights[m] · raw(m, point), summed
// in the domain's canonical measure order. Any subset of the measures
// may be weighted — {"performance": 1} is the pure-performance search,
// adding a robustness weight explores the P/R trade-off frontier.
//
// Weights apply to raw measure values (whole-set normalisation needs
// the whole set, which an explorer never has), so pick weights on the
// measures' natural scales. They are not part of a cache key: the cache
// holds raw values, so one warmed cache serves every weighting.
type Weights map[string]float64

// Evaluation pairs a point with its blended score; higher is better.
type Evaluation struct {
	Point core.Point
	Score float64
}

// HillClimbConfig tunes the hill-climbing explorer.
type HillClimbConfig struct {
	Restarts int   // independent restarts from random valid points (>=1)
	MaxSteps int   // step cap per restart (>=1)
	Seed     int64 // RNG seed for restart points
}

// HillClimb performs steepest-ascent hill climbing with random
// restarts on a domain against a measure-weight blend: from a random
// valid point, repeatedly move to the best strictly-improving
// single-dimension neighbour until none exists. It returns the best
// evaluation found and the number of objective calls (points scored). A
// non-nil cache memoises raw scores across searches and processes;
// results are identical with and without one. Every weight must be
// finite and at least one non-zero.
//
// rec (nil = tracing off) journals an "explore" root span for the whole
// search and a "restart" child per restart (steps, fresh objective
// calls, converged score). Observation only.
func HillClimb(ctx context.Context, d dsa.Domain, w Weights, cfg dsa.Config, hcfg HillClimbConfig, c dsa.ScoreCache, rec *obs.Recorder) (Evaluation, int, error) {
	if hcfg.Restarts < 1 || hcfg.MaxSteps < 1 {
		return Evaluation{}, 0, errors.New("job: HillClimb needs Restarts >= 1 and MaxSteps >= 1")
	}
	if err := cfg.Validate(); err != nil {
		return Evaluation{}, 0, err
	}
	for m := range w {
		if !slices.Contains(d.Measures(), m) {
			return Evaluation{}, 0, fmt.Errorf("job: domain %q has no measure %q (measures: %v)", d.Name(), m, d.Measures())
		}
	}
	// The weighted measures, in canonical order.
	var (
		measures []string
		weights  []float64
	)
	for _, m := range d.Measures() {
		switch wt := w[m]; {
		case math.IsNaN(wt) || math.IsInf(wt, 0):
			return Evaluation{}, 0, fmt.Errorf("job: weight %v on measure %q of domain %q is not finite", wt, m, d.Name())
		case wt != 0:
			measures, weights = append(measures, m), append(weights, wt)
		}
	}
	if len(measures) == 0 {
		return Evaluation{}, 0, fmt.Errorf("job: weight vector %v weights no measure of domain %q", map[string]float64(w), d.Name())
	}
	pts := d.Space().Enumerate()
	if len(pts) == 0 {
		return Evaluation{}, 0, errors.New("job: space has no valid points")
	}
	rng := rand.New(rand.NewSource(hcfg.Seed))
	memo := map[string]float64{} // point key → blended score: one entry per objective call

	// evaluate returns the blended score of every point of batch. The
	// points the memo does not hold yet are scored as one sweep: one task
	// per weighted measure over all of them.
	evaluate := func(batch ...core.Point) ([]Evaluation, error) {
		keys := make([]string, len(batch)) // each point's memo key, built once
		var (
			fresh     []core.Point
			freshKeys []string
		)
		for i, p := range batch {
			keys[i] = p.Key()
			if _, ok := memo[keys[i]]; !ok && !slices.Contains(freshKeys, keys[i]) {
				fresh, freshKeys = append(fresh, p), append(freshKeys, keys[i])
			}
		}
		if len(fresh) > 0 {
			spec := Spec{Domain: d, Points: fresh, Cfg: cfg, Chunk: len(fresh)}
			tasks := make([]Task, len(measures))
			for k, m := range measures {
				tasks[k] = Task{Measure: m, Lo: 0, Hi: len(fresh)}
			}
			vals := make([][]float64, len(tasks)) // each sink call writes its own element
			err := ExecTasks(ctx, spec, tasks, ExecOptions{Cache: c}, func(t Task, v []float64, _ time.Duration) error {
				vals[slices.Index(measures, t.Measure)] = v
				return nil
			})
			if err != nil {
				return nil, err
			}
			for i, key := range freshKeys {
				var sum float64
				for k, wt := range weights {
					sum += float64(wt * vals[k][i])
				}
				memo[key] = sum
			}
		}
		out := make([]Evaluation, len(batch))
		for i, p := range batch {
			out[i] = Evaluation{Point: p, Score: memo[keys[i]]}
		}
		return out, nil
	}

	root := rec.Start(0, "explore").Str("domain", d.Name()).Str("explorer", "hillclimb").Int("restarts", int64(hcfg.Restarts))
	last := rec.Now() // where the next restart span starts
	fail := func(err error) (Evaluation, int, error) {
		root.Drop()
		return Evaluation{}, len(memo), err
	}
	var best Evaluation
	for r := 0; r < hcfg.Restarts; r++ {
		before := len(memo)
		start, err := evaluate(pts[rng.Intn(len(pts))])
		if err != nil {
			return fail(err)
		}
		cur, steps := start[0], 0
		for ; steps < hcfg.MaxSteps; steps++ {
			nbs, err := evaluate(d.Space().Neighbors(cur.Point)...)
			if err != nil {
				return fail(err)
			}
			next := cur
			for _, nb := range nbs {
				if nb.Score > next.Score {
					next = nb
				}
			}
			if !(next.Score > cur.Score) {
				break
			}
			cur = next
		}
		if r == 0 || cur.Score > best.Score {
			best = cur
		}
		from := last
		last = rec.Now()
		rec.Interval(root.ID(), "restart", from, last).Int("restart", int64(r)).Int("steps", int64(steps)).
			Int("calls", int64(len(memo)-before)).Float("score", cur.Score).End()
	}
	root.Int("calls", int64(len(memo))).Float("best", best.Score).End()
	return best, len(memo), nil
}
