package swarm

import (
	"fmt"

	"repro/internal/stats"
)

// MixPoint is one point of a Figure 9 curve: the average download time
// of each camp at a given composition, with 95% confidence intervals
// over the runs.
type MixPoint struct {
	FracA  float64      // fraction of leechers running client A
	TimeA  stats.MeanCI // camp-A mean download time (seconds)
	TimeB  stats.MeanCI // camp-B mean download time
	CountA int          // leechers running A
}

// EncounterSeries reproduces one Figure 9 panel: client a against
// client b across the composition fractions, runs runs per point (the
// paper uses at least 10), n leechers per swarm. At frac 0 or 1 the
// swarm is homogeneous and only the corresponding camp's time is
// meaningful.
func EncounterSeries(a, b Client, fracs []float64, n, runs int, cfg Config) ([]MixPoint, error) {
	if n < 1 || runs < 1 {
		return nil, fmt.Errorf("swarm: need n >= 1 and runs >= 1")
	}
	out := make([]MixPoint, 0, len(fracs))
	for fi, frac := range fracs {
		if frac < 0 || frac > 1 {
			return nil, fmt.Errorf("swarm: fraction %v outside [0,1]", frac)
		}
		nA := int(float64(frac*float64(n)) + 0.5)
		clients := make([]Client, n)
		// Spread A evenly over the (stratified-capacity) index order so
		// camps see the same capacity mix.
		placed := 0
		for i := 0; i < n; i++ {
			if (i+1)*nA/n > placed {
				clients[i] = a
				placed++
			} else {
				clients[i] = b
			}
		}
		var timesA, timesB []float64
		for r := 0; r < runs; r++ {
			runCfg := cfg
			runCfg.Seed = cfg.Seed + int64(1000*fi+r)
			res, err := Run(clients, runCfg)
			if err != nil {
				return nil, err
			}
			if nA > 0 {
				if m := res.CampMean(func(i int) bool { return clients[i] == a }); !isInf(m) {
					timesA = append(timesA, m)
				}
			}
			if nA < n {
				if m := res.CampMean(func(i int) bool { return clients[i] == b }); !isInf(m) {
					timesB = append(timesB, m)
				}
			}
		}
		out = append(out, MixPoint{
			FracA:  frac,
			TimeA:  stats.MeanCI95(timesA),
			TimeB:  stats.MeanCI95(timesB),
			CountA: nA,
		})
	}
	return out, nil
}

// Homogeneous measures the all-same-client swarm of Figure 10: mean
// download time with 95% CI over runs.
func Homogeneous(c Client, n, runs int, cfg Config) (stats.MeanCI, error) {
	clients := make([]Client, n)
	for i := range clients {
		clients[i] = c
	}
	var times []float64
	for r := 0; r < runs; r++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + int64(r)
		res, err := Run(clients, runCfg)
		if err != nil {
			return stats.MeanCI{}, err
		}
		if m := res.CampMean(func(int) bool { return true }); !isInf(m) {
			times = append(times, m)
		}
	}
	return stats.MeanCI95(times), nil
}

func isInf(f float64) bool { return f > 1e300 }
