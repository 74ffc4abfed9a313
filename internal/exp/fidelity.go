package exp

import (
	"fmt"
	"slices"
	"syscall"
	"time"

	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/stats"
	"repro/internal/swarm"
)

// Claim is one paper claim the fidelity ledger measures: the value the
// paper reports (1 for an ordering or a verdict, measured as the share
// of its comparisons that hold) and how far a measured interval may sit
// from it and still reproduce it, with the reason for that distance.
type Claim struct {
	Name      string  `json:"claim"`
	Source    string  `json:"source"`
	Statistic string  `json:"statistic"`
	Paper     float64 `json:"paper"`
	Tolerance float64 `json:"tolerance"`
	Reason    string  `json:"reason"`
}

// claims is the ledger's claim table. A tolerance comes from what the
// claim says, never from a run: widening one until a row passes would
// hide the miss the row exists to show.
var claims = []Claim{
	{"fig8", "Figure 8", "Pearson r of robustness and aggressiveness over the sampled protocols", 0.96, 0.05,
		"the claim is a strong linear relation (r > 0.9); reduced-scale score noise attenuates r, and 0.05 either side keeps that reading"},
	{"validate9010", "§4.3.2", "Pearson r of 50/50 and 90/10 robustness over the sampled protocols", 0.97, 0.05,
		"the claim is that the invader share barely reorders robustness (r > 0.9); 0.05 either side keeps that reading"},
	{"table3_signs", "Table 3", "share of four signs the OLS fit reproduces: R3 (Freeride) < 0 on performance and on aggressiveness, B3 (Defect strangers) < 0 and I2 (Slowest ranking) < 0 on robustness", 1, 0,
		"signs are the claim: one reversed in one seed is a miss"},
	{"churn_low_k", "§4.4", "share of the churn rates 0.01 and 0.1 at which k 1-3 protocols have a higher mean normalised performance than k 7-9 ones", 1, 0,
		"an ordering is the claim: one reversed in one seed is a miss"},
	{"nash", "Appendix", "share of the analytic model's default grid agreeing with both verdicts: a Birds deviation gains in a BitTorrent swarm, a BitTorrent deviation does not gain in a Birds swarm", 1, 0,
		"a verdict is the claim; the model draws no random numbers, so one value stands for every seed"},
	{"fig9_10_orderings", "Figures 9, 10", "share of 11 orderings the piece-level swarm reproduces: Loyal-When-needed (9a) and Birds (9b) download faster than BitTorrent at each mixed composition, and Sort-S, top by PRA performance, has Figure 10's fastest homogeneous swarm", 1, 0,
		"orderings are the claim: one reversed in one seed is a miss"},
}

// FidelityRow is one claim measured over the ledger's seeds. Interval is
// the values' range; Holds reports whether it lies within Tolerance of
// Paper. CPUSec is what reproducing this row alone costs over every
// seed: the shared 50/50 sweep counts in each of the rows that read it.
type FidelityRow struct {
	Claim
	Values   []float64  `json:"values"`
	Interval [2]float64 `json:"interval"`
	Holds    bool       `json:"holds"`
	Scale    string     `json:"scale"`
	CPUSec   float64    `json:"cpu_s"`
}

// Ledger is FIDELITY.json: every claim of claims, measured.
type Ledger struct {
	Seeds  []int64       `json:"seeds"`
	CPUSec float64       `json:"cpu_s"`
	Rows   []FidelityRow `json:"rows"`
}

// FidelitySeeds are the master seeds every ledger row is measured over.
var FidelitySeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// LedgerScale is what a ledger is measured at: the protocols and PRA
// config of the sweep rows (Cfg.Seed is replaced by each master seed),
// and the swarm, leechers and runs a point of the Figure 9/10 row.
type LedgerScale struct {
	Label     string // how the protocols were chosen, e.g. "quick preset, stride 29"
	Protocols []design.Protocol
	Cfg       dsa.Config
	Swarm     swarm.Config
	Leechers  int
	Runs      int
	Seeds     []int64
}

// Fidelity measures every claim of claims at sc. Per seed, one 50/50
// sweep feeds Figure 8, Table 3 and the 90/10 validation.
func Fidelity(sc LedgerScale) (*Ledger, error) {
	start := cpuSeconds()
	rows := make([]FidelityRow, len(claims))
	for i, c := range claims {
		rows[i] = FidelityRow{Claim: c, Scale: fmt.Sprintf("%s: %d protocols, %d peers, %d rounds, %d perf runs, %d encounter runs, %d opponents",
			sc.Label, len(sc.Protocols), sc.Cfg.Peers, sc.Cfg.Rounds, sc.Cfg.PerfRuns, sc.Cfg.EncounterRuns, sc.Cfg.Opponents)}
	}
	row := func(name string) *FidelityRow {
		return &rows[slices.IndexFunc(rows, func(r FidelityRow) bool { return r.Name == name })]
	}
	fig8, validate, table3, churn := row("fig8"), row("validate9010"), row("table3_signs"), row("churn_low_k")
	nash, orderings := row("nash"), row("fig9_10_orderings")
	orderings.Scale = fmt.Sprintf("piece-level swarm: %d leechers, %d runs a point, %d KiB file", sc.Leechers, sc.Runs, sc.Swarm.FileKiB)

	// charge runs f and charges its CPU time to each of rows.
	charge := func(f func() error, rows ...*FidelityRow) error {
		t := cpuSeconds()
		err := f()
		d := cpuSeconds() - t
		for _, r := range rows {
			r.CPUSec += d
		}
		return err
	}
	if err := charge(func() error {
		rep, err := Nash()
		bt, birds := rep.BTVerdict, rep.BirdsVerdict
		nash.Values = []float64{float64(bt.Profitable+birds.Checked-birds.Profitable) / float64(bt.Checked+birds.Checked)}
		nash.Scale = fmt.Sprintf("analytic model: default grid, %d configurations", bt.Checked)
		return err
	}, nash); err != nil {
		return nil, err
	}
	for _, seed := range sc.Seeds {
		cfg := sc.Cfg
		cfg.Seed = seed
		var res *SweepResult
		if err := charge(func() (err error) {
			res, err = Sweep(sc.Protocols, cfg)
			return err
		}, fig8, table3, validate); err != nil {
			return nil, fmt.Errorf("exp: fidelity sweep, seed %d: %w", seed, err)
		}
		for _, s := range []struct {
			row   *FidelityRow
			value func() (float64, error)
		}{
			{fig8, func() (float64, error) { _, _, r, err := res.Fig8(); return r, err }},
			{table3, res.table3Signs},
			{validate, func() (float64, error) { _, _, r, err := res.Validate9010(cfg); return r, err }},
			{churn, func() (float64, error) { return churnLowK(sc.Protocols, cfg) }},
			{orderings, func() (float64, error) { return swarmOrderings(sc, seed) }},
		} {
			if err := charge(func() error {
				v, err := s.value()
				s.row.Values = append(s.row.Values, v)
				return err
			}, s.row); err != nil {
				return nil, fmt.Errorf("exp: fidelity %s, seed %d: %w", s.row.Name, seed, err)
			}
		}
	}
	for i := range rows {
		r := &rows[i]
		r.Interval = [2]float64{slices.Min(r.Values), slices.Max(r.Values)}
		r.Holds = r.Interval[0] >= r.Paper-r.Tolerance && r.Interval[1] <= r.Paper+r.Tolerance
		r.CPUSec = roundTenth(r.CPUSec)
	}
	return &Ledger{Seeds: sc.Seeds, CPUSec: roundTenth(cpuSeconds() - start), Rows: rows}, nil
}

// share is the fraction of oks that are true.
func share(oks ...bool) float64 {
	n := 0
	for _, ok := range oks {
		if ok {
			n++
		}
	}
	return float64(n) / float64(len(oks))
}

// table3Signs is the share of the Table 3 signs of claims that the fit
// reproduces.
func (r *SweepResult) table3Signs() (float64, error) {
	perf, rob, agg, err := r.Table3()
	if err != nil {
		return 0, err
	}
	return share(perf.Coef("R3").Estimate < 0, agg.Coef("R3").Estimate < 0,
		rob.Coef("B3").Estimate < 0, rob.Coef("I2").Estimate < 0), nil
}

// churnLowK is the share of the churn rates at which low-k protocols
// outperform high-k ones.
func churnLowK(protos []design.Protocol, cfg dsa.Config) (float64, error) {
	pts, err := ChurnSweep(protos, []float64{0.01, 0.1}, cfg)
	if err != nil {
		return 0, err
	}
	oks := make([]bool, len(pts))
	for i, pt := range pts {
		oks[i] = stats.Mean(pt.MeanPerfK[1:4]) > stats.Mean(pt.MeanPerfK[7:10])
	}
	return share(oks...), nil
}

// swarmOrderings is the share of the Figure 9/10 orderings of claims
// that the swarm reproduces under one master seed.
func swarmOrderings(sc LedgerScale, seed int64) (float64, error) {
	cfg := sc.Swarm
	cfg.Seed = seed
	var oks []bool
	for _, panel := range []func(int, int, swarm.Config) ([]swarm.MixPoint, error){Fig9a, Fig9b} {
		pts, err := panel(sc.Leechers, sc.Runs, cfg)
		if err != nil {
			return 0, err
		}
		for _, p := range pts {
			if p.FracA > 0 && p.FracA < 1 {
				oks = append(oks, p.TimeA.Mean < p.TimeB.Mean)
			}
		}
	}
	homog, err := Fig10(sc.Leechers, sc.Runs, cfg)
	if err != nil {
		return 0, err
	}
	fastest := true
	for c, ci := range homog {
		fastest = fastest && (c == swarm.ClientSortS || homog[swarm.ClientSortS].Mean < ci.Mean)
	}
	return share(append(oks, fastest)...), nil
}

// cpuSeconds is the process's user and system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func roundTenth(s float64) float64 { return float64(int64(float64(s*10)+0.5)) / 10 }

// Check compares l with a committed ledger: each committed row
// measured over the same seeds at the same scale must still be
// measured, its interval must stay within the row's tolerance of the
// committed one, and a row committed as holding must still hold. It
// returns how many rows it compared and what failed.
func (l *Ledger) Check(committed *Ledger) (compared int, fails []string) {
	if !slices.Equal(l.Seeds, committed.Seeds) {
		return 0, nil
	}
	for _, c := range committed.Rows {
		i := slices.IndexFunc(l.Rows, func(r FidelityRow) bool { return r.Name == c.Name })
		if i < 0 {
			fails = append(fails, fmt.Sprintf("%s: committed row no longer measured", c.Name))
			continue
		}
		r := l.Rows[i]
		if r.Scale != c.Scale {
			continue
		}
		compared++
		if r.Interval[0] < c.Interval[0]-c.Tolerance || r.Interval[1] > c.Interval[1]+c.Tolerance {
			fails = append(fails, fmt.Sprintf("%s: interval %v left the committed %v ± %g", c.Name, r.Interval, c.Interval, c.Tolerance))
		}
		if c.Holds && !r.Holds {
			fails = append(fails, fmt.Sprintf("%s: held when committed, holds no longer", c.Name))
		}
	}
	return compared, fails
}
