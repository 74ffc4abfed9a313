// Package pra implements the Performance, Robustness, Aggressiveness
// quantification of Section 3.2 — the solution concept of Design Space
// Analysis — over the file-swarming design space of Section 4.
//
// For a protocol Π:
//
//   - Performance: population mean throughput when everyone runs Π,
//     normalised over the whole evaluated set (1 = best in space).
//   - Robustness: the fraction of tournament games Π wins when half the
//     population runs Π and half runs an opposing protocol.
//   - Aggressiveness: the same with Π in a 10% minority.
//
// A tournament plays Π against every opponent (or a fixed deterministic
// sample, for reduced presets) for EncounterRuns runs each; a win is a
// strictly higher camp-mean utility. All work items get seeds derived
// from the pair and run index, so results are identical regardless of
// worker count or scheduling.
package pra

import (
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/design"
	"repro/internal/dsa"
)

// Paper returns the full-scale configuration of Section 4.3: 50 peers,
// 500 rounds, 100 performance runs, 10 runs per encounter, full
// round-robin. Running it over all 3270 protocols is the paper's
// 107-million-run, 25-cluster-hour experiment — budget accordingly.
func Paper() dsa.Config {
	return dsa.Config{Peers: 50, Rounds: 500, PerfRuns: 100, EncounterRuns: 10, Seed: 1}
}

// Quick returns a reduced configuration that preserves the shape of the
// results at a small fraction of the cost: fewer peers, rounds and runs,
// and a fixed 60-opponent sample per tournament.
func Quick() dsa.Config {
	return dsa.Config{Peers: 30, Rounds: 150, PerfRuns: 3, EncounterRuns: 1, Opponents: 60, Seed: 1}
}

// seedKindPerformance discriminates the homogeneous runs' seed stream
// from the tournaments', whose kind is their fraction in thousandths
// (500, 100, 900).
const seedKindPerformance = 1

// simulate runs one population once at the sweep's scale.
func simulate(specs []cyclesim.PeerSpec, cfg dsa.Config, seed int64) (cyclesim.Result, error) {
	return cyclesim.Run(specs, cyclesim.Options{
		Rounds:      cfg.Rounds,
		Seed:        seed,
		Churn:       cfg.Churn,
		Replacement: bandwidth.Piatek(),
	})
}

// EncounterSpecs builds a mixed population: nA peers run a, the rest
// run b, with group-A positions spread evenly across the stratified
// Piatek capacity order so both camps see the same capacity
// distribution. The returned mask marks the peers running a.
func EncounterSpecs(a, b design.Protocol, n, nA int) ([]cyclesim.PeerSpec, []bool) {
	caps := bandwidth.Piatek().Stratified(n)
	specs := make([]cyclesim.PeerSpec, n)
	mask := make([]bool, n)
	// Assign capacities to camps so the per-capita capacity of both
	// camps matches as closely as possible: walk capacities from the
	// heaviest down (the tail dominates the mean) and give each to the
	// camp with the larger remaining per-slot deficit. Positional
	// interleaving is not enough — a single heavy-tail peer can skew a
	// camp's mean by 50%.
	total := 0.0
	for _, c := range caps {
		total += c
	}
	target := total / float64(n)
	sumA, sumB := 0.0, 0.0
	leftA, leftB := nA, n-nA
	for i := n - 1; i >= 0; i-- { // Stratified() is ascending
		var toA bool
		switch {
		case leftA == 0:
			toA = false
		case leftB == 0:
			toA = true
		default:
			defA := (float64(target*float64(nA)) - sumA) / float64(leftA)
			defB := (float64(target*float64(n-nA)) - sumB) / float64(leftB)
			// Ties go to the larger camp, which absorbs outliers best.
			toA = defA > defB || (defA == defB && leftA > leftB)
		}
		if toA {
			mask[i] = true
			sumA += caps[i]
			leftA--
		} else {
			sumB += caps[i]
			leftB--
		}
	}
	for i := range specs {
		p := b
		if mask[i] {
			p = a
		}
		specs[i] = cyclesim.PeerSpec{Protocol: p, Capacity: caps[i]}
	}
	return specs, mask
}

// PerformanceSweep measures raw homogeneous performance (population
// mean throughput in KiB/s, averaged over PerfRuns runs) for every
// protocol of pts; the domain's Assemble applies the paper's
// normalisation.
func PerformanceSweep(pts []core.Point, cfg dsa.Config) ([]float64, error) {
	return dsa.MeanOverRuns(pts, base.PointID, seedKindPerformance, cfg, func(pt core.Point) (dsa.Stat, error) {
		p, err := FromPoint(pt)
		if err != nil {
			return nil, err
		}
		// An all-p population is p's encounter with itself: stratified
		// Piatek capacities in ascending order.
		specs, _ := EncounterSpecs(p, p, cfg.Peers, cfg.Peers)
		return func(seed int64) (float64, error) {
			res, err := simulate(specs, cfg, seed)
			if err != nil {
				return 0, err
			}
			return res.Mean(), nil
		}, nil
	})
}

// encounter is the mixed population of one (a, b, frac) pairing. It is
// a function of the pair, the population size and the fraction only,
// so a tournament builds it once and plays all EncounterRuns seeds on
// it.
type encounter struct {
	specs []cyclesim.PeerSpec
	mask  []bool // true = the peer runs a
	nA    int
}

// newEncounter builds the population in which a fraction frac of
// cfg.Peers (at least one peer, at most all but one) runs a.
func newEncounter(a, b design.Protocol, frac float64, cfg dsa.Config) encounter {
	nA := int(float64(frac*float64(cfg.Peers)) + 0.5)
	if nA < 1 {
		nA = 1
	}
	if nA >= cfg.Peers {
		nA = cfg.Peers - 1
	}
	specs, mask := EncounterSpecs(a, b, cfg.Peers, nA)
	return encounter{specs: specs, mask: mask, nA: nA}
}

// run simulates the population once and returns both camps' mean
// utility.
func (e encounter) run(cfg dsa.Config, seed int64) (meanA, meanB float64, err error) {
	res, err := simulate(e.specs, cfg, seed)
	if err != nil {
		return 0, 0, err
	}
	var sumA, sumB float64
	for i, u := range res.Utility {
		if e.mask[i] {
			sumA += u
		} else {
			sumB += u
		}
	}
	return sumA / float64(e.nA), sumB / float64(len(e.mask)-e.nA), nil
}

// Encounter runs one mixed-population simulation and returns the camp
// means for a and b. frac is the fraction of the population running a.
func Encounter(a, b design.Protocol, frac float64, cfg dsa.Config, seed int64) (meanA, meanB float64, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, 0, err
	}
	return newEncounter(a, b, frac, cfg).run(cfg, seed)
}

// TournamentScores plays every protocol of pts against every opponent
// at the given population fraction (0.5 for Robustness, 0.1 for
// Aggressiveness, 0.9 for the 90-10 validation) and returns each
// protocol's win fraction in [0,1]. Encounters against an identical
// protocol are skipped.
func TournamentScores(pts, opponents []core.Point, frac float64, cfg dsa.Config) ([]float64, error) {
	return dsa.WinFractions(pts, opponents, base.PointID, int(frac*1000), cfg, func(a, b core.Point) (dsa.Game, error) {
		ps, err := Protocols([]core.Point{a, b})
		if err != nil {
			return nil, err
		}
		enc := newEncounter(ps[0], ps[1], frac, cfg)
		return func(seed int64) (float64, float64, error) { return enc.run(cfg, seed) }, nil
	})
}
