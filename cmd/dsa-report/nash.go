package main

// The nash report reproduces the Section 2 analysis: the BitTorrent
// Dilemma payoff structure (Figure 1), the expected-game-wins model of
// Section 2.2 for a worked example, and the Appendix verdicts that
// BitTorrent's TFT is not a Nash equilibrium while Birds is.

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/analytic"
	"repro/internal/game"
	"repro/internal/report"
)

func runNash(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("nash", flag.ExitOnError)
	var (
		na = fs.Int("na", 20, "peers in classes above c")
		nb = fs.Int("nb", 15, "peers in classes below c")
		nc = fs.Int("nc", 15, "peers in c's class")
		ur = fs.Int("ur", 4, "regular unchoke slots")
		f  = fs.Float64("f", 100, "fast peer upload speed")
		s  = fs.Float64("s", 20, "slow peer upload speed")
	)
	fs.Parse(args)

	// Figure 1: the games and their dominant strategies.
	bt, err := game.BitTorrentDilemma(*f, *s)
	if err != nil {
		return err
	}
	birds, err := game.BirdsDilemma(*f, *s)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1(a) — BitTorrent Dilemma (row=fast, col=slow):")
	fmt.Fprint(w, bt)
	describeDominance(w, bt)
	fmt.Fprintln(w, "\nFigure 1(c) — Birds payoffs:")
	fmt.Fprint(w, birds)
	describeDominance(w, birds)

	// Section 2.2: expected game wins for the worked example.
	p := analytic.Params{NA: *na, NB: *nb, NC: *nc, Ur: *ur}
	if err := p.Validate(); err != nil {
		return err
	}
	btW, err := analytic.BitTorrent(p)
	if err != nil {
		return err
	}
	birdsW, err := analytic.Birds(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSection 2.2 expected game wins (NA=%d NB=%d NC=%d Ur=%d, Nr=%d):\n",
		p.NA, p.NB, p.NC, p.Ur, p.Nr())
	tbl := report.NewTable("protocol", "Er[A]", "E[A]", "Er[B]", "E[B]", "Er[C]", "E[C]", "total")
	tbl.Add("BitTorrent", btW.RecipA, btW.FreeA, btW.RecipB, btW.FreeB, btW.RecipC, btW.FreeC, btW.Total())
	tbl.Add("Birds", birdsW.RecipA, birdsW.FreeA, birdsW.RecipB, birdsW.FreeB, birdsW.RecipC, birdsW.FreeC, birdsW.Total())
	if err := tbl.Render(w); err != nil {
		return err
	}

	// Appendix: deviation analysis at the example point and over the grid.
	dev, err := analytic.BirdsDeviantInBT(p)
	if err != nil {
		return err
	}
	dev2, err := analytic.BTDeviantInBirds(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAppendix deviations at this configuration:\n")
	fmt.Fprintf(w, "  Birds deviant in BT swarm:  deviant %.4f vs resident %.4f  (gain %+.4f)\n",
		dev.Deviant.Total(), dev.Resident.Total(), dev.Gain())
	fmt.Fprintf(w, "  BT deviant in Birds swarm:  deviant %.4f vs resident %.4f  (gain %+.4f)\n",
		dev2.Deviant.Total(), dev2.Resident.Total(), dev2.Gain())

	grid := analytic.DefaultGrid()
	vBT, err := analytic.CheckBTNash(grid)
	if err != nil {
		return err
	}
	vBirds, err := analytic.CheckBirdsNash(grid)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nGrid verdicts over %d configurations:\n", vBT.Checked)
	fmt.Fprintf(w, "  BitTorrent: profitable Birds deviation in %d/%d configs → NOT a Nash equilibrium\n",
		vBT.Profitable, vBT.Checked)
	fmt.Fprintf(w, "  Birds:      profitable BT deviation in %d/%d configs → Nash equilibrium: %v\n",
		vBirds.Profitable, vBirds.Checked, vBirds.IsEquilibrium())
	return nil
}

func describeDominance(w io.Writer, g *game.Bimatrix) {
	for _, side := range []struct {
		name string
		dom  func(game.Action) (bool, bool)
	}{
		{"fast (row)", g.DominantRow},
		{"slow (col)", g.DominantCol},
	} {
		for _, a := range []game.Action{game.Cooperate, game.Defect} {
			if weak, strict := side.dom(a); weak {
				kind := "weakly"
				if strict {
					kind = "strictly"
				}
				fmt.Fprintf(w, "  %s: %s %s dominant\n", side.name, a, kind)
			}
		}
	}
	fmt.Fprintf(w, "  pure Nash equilibria: %v\n", g.PureNash())
}
