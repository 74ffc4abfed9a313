package main

// The Section 5 validation reports on the piece-level swarm simulator:
// the three competitive-encounter panels of Figure 9 and the
// homogeneous-swarm comparison of Figure 10.

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/report"
	"repro/internal/swarm"
)

// fig9Panels are Figure 9's panels in the paper's order.
var fig9Panels = []struct {
	name, title string
	run         func(n, runs int, cfg swarm.Config) ([]swarm.MixPoint, error)
}{
	{"fig9a", "Figure 9(a): Loyal-When-needed vs BitTorrent", exp.Fig9a},
	{"fig9b", "Figure 9(b): Birds vs BitTorrent", exp.Fig9b},
	{"fig9c", "Figure 9(c): Loyal-When-needed vs Birds", exp.Fig9c},
}

// runSwarm renders fig9a, fig9b, fig9c, fig10 or fig9 (the three
// panels, a blank line after each).
func runSwarm(w io.Writer, what string, args []string) error {
	fs := flag.NewFlagSet(what, flag.ExitOnError)
	var (
		leechers = fs.Int("leechers", 50, "leechers per swarm")
		runs     = fs.Int("runs", 10, "runs per data point")
		seed     = fs.Int64("seed", 1, "seed")
	)
	fs.Parse(args)
	cfg := swarm.Default()
	cfg.Seed = *seed

	if what == "fig10" {
		return fig10(w, *leechers, *runs, cfg)
	}
	known := false
	for _, panel := range fig9Panels {
		if what != "fig9" && what != panel.name {
			continue
		}
		known = true
		pts, err := panel.run(*leechers, *runs, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, panel.title)
		tbl := report.NewTable("fraction A", "A mean (s)", "A ±95%", "B mean (s)", "B ±95%")
		for _, p := range pts {
			aMean, aHalf := fmtCI(p.TimeA.Mean, p.TimeA.Half, p.CountA > 0)
			bMean, bHalf := fmtCI(p.TimeB.Mean, p.TimeB.Half, p.CountA < *leechers)
			tbl.Add(p.FracA, aMean, aHalf, bMean, bHalf)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		if what == "fig9" {
			fmt.Fprintln(w)
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return nil
}

func fmtCI(mean, half float64, present bool) (string, string) {
	if !present {
		return "-", "-"
	}
	return fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.1f", half)
}

func fig10(w io.Writer, n, runs int, cfg swarm.Config) error {
	out, err := exp.Fig10(n, runs, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10: average download times, homogeneous swarms")
	labels := make([]string, 0, len(exp.Fig10Clients))
	values := make([]float64, 0, len(exp.Fig10Clients))
	for _, c := range exp.Fig10Clients {
		ci := out[c]
		labels = append(labels, fmt.Sprintf("%s (±%.1f)", c, ci.Half))
		values = append(values, ci.Mean)
	}
	return report.HBar(w, labels, values, 40)
}
