package dsa

// The solution concept of Section 3.2, written once. A domain's
// ScoreSlice says what a homogeneous population and a mixed pairing are
// in its simulator; how they are seeded, repeated, averaged, won and
// parallelised is the same in every domain and lives here. The
// functions are generic over the item type, like SamplePanel, so a
// domain can pass core.Points or its own typed protocols; id maps an
// item to its stable point ID, the only thing a seed may depend on.

import "repro/internal/stats"

// Stat is one prepared homogeneous population: the measured statistic of
// one simulation of it under the given seed.
type Stat func(seed int64) (float64, error)

// Game is one prepared mixed pairing of an item a against an opponent b:
// both camps' mean utility in one simulation under the given seed.
type Game func(seed int64) (meanA, meanB float64, err error)

// ForEach is the per-point loop of a ScoreSlice: after validating cfg
// once it calls fn(i, items[i], id(items[i])) for every i on
// cfg.Parallelism() workers, and returns the error of the lowest failing
// index (an id error counts as that item's), so the error too is
// independent of scheduling. fn writes its result at index i of whatever
// it fills; on an error the caller must drop the partial vectors.
func ForEach[T any](items []T, id func(T) (int, error), cfg Config, fn func(i int, item T, id int) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	errs := make([]error, len(items))
	ParallelFor(len(items), cfg.Parallelism(), func(i int) {
		pid, err := id(items[i])
		if err == nil {
			err = fn(i, items[i], pid)
		}
		errs[i] = err
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// HomogeneousRuns runs the cfg.PerfRuns homogeneous simulations of the
// point with the given ID and returns their results in run order. Run
// r's seed is TaskSeed(cfg.Seed, id, 0, r, kind): point identity and run
// index, never slice position, which is what lets any partition of a
// sweep recombine into identical values.
func HomogeneousRuns[R any](cfg Config, id, kind int, run func(seed int64) (R, error)) ([]R, error) {
	out := make([]R, cfg.PerfRuns)
	for r := range out {
		var err error
		if out[r], err = run(TaskSeed(cfg.Seed, id, 0, r, kind)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MeanOverRuns is the homogeneous measure (performance, coverage): for
// each item, the mean of a statistic over its HomogeneousRuns. prepare
// builds the item's population once; the Stat it returns simulates it
// once per seed.
func MeanOverRuns[T any](items []T, id func(T) (int, error), kind int, cfg Config, prepare func(T) (Stat, error)) ([]float64, error) {
	out := make([]float64, len(items))
	err := ForEach(items, id, cfg, func(i int, item T, pid int) error {
		stat, err := prepare(item)
		if err != nil {
			return err
		}
		vals, err := HomogeneousRuns(cfg, pid, kind, stat)
		if err != nil {
			return err
		}
		out[i] = stats.Mean(vals)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WinFractions is the tournament measure (robustness, aggressiveness):
// each item plays every panel member with a different point ID —
// self-play is skipped — for cfg.EncounterRuns games seeded
// TaskSeed(cfg.Seed, idA, idB, r, kind), and scores the fraction of
// games it wins, a win being a strictly higher camp mean. An item with
// no games (an all-self panel) scores 0. pair builds a pairing's
// population once; the Game it returns plays it once per seed.
func WinFractions[T any](items, panel []T, id func(T) (int, error), kind int, cfg Config, pair func(a, b T) (Game, error)) ([]float64, error) {
	panelIDs := make([]int, len(panel))
	for j, opp := range panel {
		var err error
		if panelIDs[j], err = id(opp); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(items))
	err := ForEach(items, id, cfg, func(i int, a T, idA int) error {
		wins, games := 0, 0
		for j, b := range panel {
			if idA == panelIDs[j] {
				continue
			}
			play, err := pair(a, b)
			if err != nil {
				return err
			}
			for r := 0; r < cfg.EncounterRuns; r++ {
				meanA, meanB, err := play(TaskSeed(cfg.Seed, idA, panelIDs[j], r, kind))
				if err != nil {
					return err
				}
				games++
				if meanA > meanB {
					wins++
				}
			}
		}
		if games > 0 {
			out[i] = float64(wins) / float64(games)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
