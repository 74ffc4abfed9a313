package job

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// This file holds the paper's Section 7 explorers — hill climbing and
// evolutionary search for spaces too large to sweep — as runs of small
// sweeps: each step of a search collects the points it has not scored
// yet (a restart's start, every neighbour of the current point, a whole
// generation) and scores them with one ExecTasks call, so cache lookup,
// partial-hit recombination, joint scoring and the worker pool are the
// ones every sweep, shard and grid worker uses. Seeds derive from point
// identity, so how a search happens to batch its points changes speed
// only.

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

// EvolveConfig tunes the evolutionary explorer.
type EvolveConfig struct {
	Population  int // individuals per generation (>=2)
	Generations int // generations to run (>=1)
	Seed        int64
}

// Evolve breeds each generation with the same two constants: the
// per-dimension mutation probability and how many of the best
// individuals carry over unchanged.
const (
	mutationP = 0.2
	elite     = 1
)

// search is the state the two explorers share: the weighted measures,
// the memo of blended scores (one entry per objective call, so a point
// is scored at most once per search) and the "explore" root span.
type search struct {
	d        dsa.Domain
	cfg      dsa.Config
	measures []string // the weighted measures, in canonical order
	weights  []float64
	cache    dsa.ScoreCache
	pts      []core.Point // the valid points of the space
	rng      *rand.Rand
	memo     map[string]float64 // point key → blended score
	rec      *obs.Recorder
	root     *obs.Span
	last     time.Duration // where the next restart/generation span starts
}

func newSearch(d dsa.Domain, w Weights, cfg dsa.Config, seed int64, c dsa.ScoreCache, rec *obs.Recorder, explorer string) (*search, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(w) == 0 {
		return nil, fmt.Errorf("job: empty weight vector for domain %q", d.Name())
	}
	s := &search{d: d, cfg: cfg, cache: c, pts: d.Space().Enumerate(),
		rng: rand.New(rand.NewSource(seed)), memo: map[string]float64{}, rec: rec}
	for m := range w {
		if !slices.Contains(d.Measures(), m) {
			return nil, fmt.Errorf("job: domain %q has no measure %q (measures: %v)", d.Name(), m, d.Measures())
		}
	}
	for _, m := range d.Measures() {
		if w[m] != 0 {
			s.measures, s.weights = append(s.measures, m), append(s.weights, w[m])
		}
	}
	if len(s.pts) == 0 {
		return nil, errors.New("job: space has no valid points")
	}
	s.root = rec.Start(0, "explore").Str("domain", d.Name()).Str("explorer", explorer)
	s.last = rec.Now()
	return s, nil
}

func (s *search) randPoint() core.Point { return s.pts[s.rng.Intn(len(s.pts))] }

// evaluate returns the blended score of every point of pts. The points
// the memo does not hold yet are scored as one sweep: one task per
// weighted measure over the whole batch.
func (s *search) evaluate(ctx context.Context, pts ...core.Point) ([]Evaluation, error) {
	keys := make([]string, len(pts)) // each point's memo key, built once
	var (
		batch     []core.Point
		batchKeys []string
	)
	for i, p := range pts {
		keys[i] = p.Key()
		if _, ok := s.memo[keys[i]]; !ok && !slices.Contains(batchKeys, keys[i]) {
			batch, batchKeys = append(batch, p), append(batchKeys, keys[i])
		}
	}
	if len(batch) > 0 {
		spec := Spec{Domain: s.d, Points: batch, Cfg: s.cfg, Chunk: len(batch)}
		tasks := make([]Task, len(s.measures))
		for k, m := range s.measures {
			tasks[k] = Task{Measure: m, Lo: 0, Hi: len(batch)}
		}
		vals := make([][]float64, len(tasks)) // each sink call writes its own element
		err := ExecTasks(ctx, spec, tasks, ExecOptions{Cache: s.cache}, func(t Task, v []float64, _ time.Duration) error {
			vals[slices.Index(s.measures, t.Measure)] = v
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, key := range batchKeys {
			var sum float64
			for k, wt := range s.weights {
				sum += wt * vals[k][i]
			}
			s.memo[key] = sum
		}
	}
	out := make([]Evaluation, len(pts))
	for i, p := range pts {
		out[i] = Evaluation{Point: p, Score: s.memo[keys[i]]}
	}
	return out, nil
}

// lap opens a span under the root from the end of the previous one to
// now: one per restart or generation.
func (s *search) lap(name string) *obs.Span {
	from := s.last
	s.last = s.rec.Now()
	return s.rec.Interval(s.root.ID(), name, from, s.last)
}

// end journals a finished search's root span (dropped on error) and
// returns the explorer's results; the memo's size is the number of
// objective calls.
func (s *search) end(best Evaluation, err error) (Evaluation, int, error) {
	if err != nil {
		s.root.Drop()
		return Evaluation{}, len(s.memo), err
	}
	s.root.Int("calls", int64(len(s.memo))).Float("best", best.Score).End()
	return best, len(s.memo), nil
}

// HillClimb performs steepest-ascent hill climbing with random
// restarts on a domain against a measure-weight blend: from a random
// valid point, repeatedly move to the best strictly-improving
// single-dimension neighbour until none exists. It returns the best
// evaluation found and the number of objective calls (points scored). A
// non-nil cache memoises raw scores across searches and processes;
// results are identical with and without one.
//
// rec (nil = tracing off) journals an "explore" root span for the whole
// search and a "restart" child per restart (steps, fresh objective
// calls, converged score). Observation only.
func HillClimb(ctx context.Context, d dsa.Domain, w Weights, cfg dsa.Config, hcfg HillClimbConfig, c dsa.ScoreCache, rec *obs.Recorder) (Evaluation, int, error) {
	if hcfg.Restarts < 1 || hcfg.MaxSteps < 1 {
		return Evaluation{}, 0, errors.New("job: HillClimb needs Restarts >= 1 and MaxSteps >= 1")
	}
	s, err := newSearch(d, w, cfg, hcfg.Seed, c, rec, "hillclimb")
	if err != nil {
		return Evaluation{}, 0, err
	}
	s.root.Int("restarts", int64(hcfg.Restarts))
	var best Evaluation
	for r := 0; r < hcfg.Restarts; r++ {
		before := len(s.memo)
		start, err := s.evaluate(ctx, s.randPoint())
		if err != nil {
			return s.end(best, err)
		}
		cur, steps := start[0], 0
		for ; steps < hcfg.MaxSteps; steps++ {
			nbs, err := s.evaluate(ctx, d.Space().Neighbors(cur.Point)...)
			if err != nil {
				return s.end(best, err)
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
		s.lap("restart").Int("restart", int64(r)).Int("steps", int64(steps)).
			Int("calls", int64(len(s.memo)-before)).Float("score", cur.Score).End()
	}
	return s.end(best, nil)
}

// Evolve runs a (μ+λ)-style evolutionary search on a domain against a
// measure-weight blend: tournament selection, uniform crossover,
// per-dimension mutation, constraint repair by resampling; cache and
// rec as for HillClimb, the root span's children being one "generation"
// span per generation (fresh objective calls, generation best).
func Evolve(ctx context.Context, d dsa.Domain, w Weights, cfg dsa.Config, ecfg EvolveConfig, c dsa.ScoreCache, rec *obs.Recorder) (Evaluation, int, error) {
	if ecfg.Population < 2 || ecfg.Generations < 1 {
		return Evaluation{}, 0, errors.New("job: Evolve needs Population >= 2 and Generations >= 1")
	}
	s, err := newSearch(d, w, cfg, ecfg.Seed, c, rec, "evolve")
	if err != nil {
		return Evaluation{}, 0, err
	}
	s.root.Int("generations", int64(ecfg.Generations)).Int("population", int64(ecfg.Population))
	space, rng := d.Space(), s.rng

	// Selection reads only the previous generation's scores, so a whole
	// generation is bred first and scored as one batch.
	points := make([]core.Point, ecfg.Population)
	for i := range points {
		points[i] = s.randPoint()
	}
	pop, err := s.evaluate(ctx, points...)
	if err != nil {
		return s.end(Evaluation{}, err)
	}
	rank := func() { sort.SliceStable(pop, func(a, b int) bool { return pop[a].Score > pop[b].Score }) }
	rank()
	pick := func() core.Point { // binary tournament
		a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
		if a.Score >= b.Score {
			return a.Point
		}
		return b.Point
	}
	for g := 0; g < ecfg.Generations; g++ {
		before := len(s.memo)
		points = points[:0]
		for _, e := range pop[:elite] {
			points = append(points, e.Point)
		}
		for len(points) < ecfg.Population {
			ma, pa := pick(), pick()
			child := make(core.Point, len(ma))
			for dim := range child {
				if rng.Intn(2) == 0 {
					child[dim] = ma[dim]
				} else {
					child[dim] = pa[dim]
				}
				if rng.Float64() < mutationP {
					child[dim] = rng.Intn(len(space.Dimensions[dim].Values))
				}
			}
			if !space.Valid(child) {
				child = s.randPoint() // constraint repair: resample
			}
			points = append(points, child)
		}
		if pop, err = s.evaluate(ctx, points...); err != nil {
			return s.end(Evaluation{}, err)
		}
		rank()
		s.lap("generation").Int("generation", int64(g)).
			Int("calls", int64(len(s.memo)-before)).Float("score", pop[0].Score).End()
	}
	return s.end(pop[0], nil)
}
