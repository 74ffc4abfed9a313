package exp

import (
	"math"
	"testing"

	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/pra"
	"repro/internal/swarm"
)

// tinyCfg is small enough for unit tests while exercising every path.
func tinyCfg() dsa.Config {
	return dsa.Config{Peers: 14, Rounds: 50, PerfRuns: 1, EncounterRuns: 1, Opponents: 6, Seed: 3}
}

// subset returns a representative protocol subset including the named
// protocols plus a stride over the space.
func subset(stride int) []design.Protocol {
	var ps []design.Protocol
	for _, p := range design.Named() {
		ps = append(ps, p)
	}
	all, err := pra.Protocols(pra.Domain().Space().Enumerate())
	if err != nil {
		panic(err)
	}
	for i := 0; i < len(all); i += stride {
		ps = append(ps, all[i])
	}
	return ps
}

func sweepForTest(t *testing.T) *SweepResult {
	t.Helper()
	r, err := Sweep(subset(150), tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSweepAndFig2(t *testing.T) {
	r := sweepForTest(t)
	xs, ys := r.Fig2()
	if len(xs) != len(r.Protocols) || len(ys) != len(r.Protocols) {
		t.Fatal("Fig2 lengths wrong")
	}
	for i := range xs {
		if xs[i] < 0 || xs[i] > 1 || ys[i] < 0 || ys[i] > 1 {
			t.Fatalf("point %d out of range: %v,%v", i, xs[i], ys[i])
		}
	}
}

func TestFig3Fig4Heat(t *testing.T) {
	r := sweepForTest(t)
	h3 := r.Fig3(10)
	h4 := r.Fig4(10)
	total3, total4 := 0, 0
	for c := 0; c <= design.MaxPartners; c++ {
		for b := 0; b < 10; b++ {
			total3 += h3.Counts[c][b]
			total4 += h4.Counts[c][b]
		}
	}
	if total3 != len(r.Protocols) || total4 != len(r.Protocols) {
		t.Errorf("heat mass = %d/%d, want %d", total3, total4, len(r.Protocols))
	}
}

func TestFig5GroupsCoverStrangerPolicies(t *testing.T) {
	r := sweepForTest(t)
	curves := r.Fig5()
	for _, name := range []string{"Periodic", "WhenNeeded", "Defect"} {
		if len(curves[name]) == 0 {
			t.Errorf("missing CCDF for %s", name)
		}
	}
}

func TestFig6Fig7Groups(t *testing.T) {
	r := sweepForTest(t)
	for _, pts := range [][]GroupPoint{r.Fig6(), r.Fig7()} {
		if len(pts) != len(r.Protocols) {
			t.Fatal("group point count mismatch")
		}
		for _, p := range pts {
			if p.Group == "" {
				t.Fatal("empty group label")
			}
		}
	}
}

func TestFig8Pearson(t *testing.T) {
	r := sweepForTest(t)
	xs, ys, pearson, err := r.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != len(ys) {
		t.Fatal("length mismatch")
	}
	// Robustness and aggressiveness should correlate strongly and
	// positively (paper: 0.96).
	if pearson < 0.5 {
		t.Errorf("Pearson(R,A) = %v, want strongly positive", pearson)
	}
}

func TestTable3Regression(t *testing.T) {
	r := sweepForTest(t)
	perf, rob, agg, err := r.Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks: 13 coefficients (intercept + 12 regressors).
	for _, fit := range []interface{ DF() int }{perf, rob, agg} {
		if fit.DF() <= 0 {
			t.Fatal("no residual degrees of freedom")
		}
	}
	if perf.Coef("R3") == nil || rob.Coef("B3") == nil || agg.Coef("log(h~)") == nil {
		t.Fatal("expected coefficients missing")
	}
	// Sign checks from Table 3: Freeride (R3) has the biggest negative
	// impact on Performance; Defect (B3) hurts Robustness.
	if perf.Coef("R3").Estimate >= 0 {
		t.Errorf("R3 performance estimate = %v, want negative", perf.Coef("R3").Estimate)
	}
	if rob.Coef("B3").Estimate >= 0 {
		t.Errorf("B3 robustness estimate = %v, want negative", rob.Coef("B3").Estimate)
	}
	if agg.Coef("R3").Estimate >= 0 {
		t.Errorf("R3 aggressiveness estimate = %v, want negative", agg.Coef("R3").Estimate)
	}
}

func TestValidate9010(t *testing.T) {
	r := sweepForTest(t)
	r5050, r9010, pearson, err := r.Validate9010(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r5050) != len(r9010) {
		t.Fatal("length mismatch")
	}
	// At tiny scale the correlation is noisy but must be positive
	// (paper reports 0.97 at full scale).
	if pearson <= 0 {
		t.Errorf("Pearson(50-50, 90-10) = %v, want positive", pearson)
	}
}

func TestChurnSweep(t *testing.T) {
	pts, err := ChurnSweep(subset(300), []float64{0.01, 0.1}, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if len(pt.MeanPerfK) != design.MaxPartners+1 {
			t.Fatal("per-k vector wrong length")
		}
	}
}

func TestFig9Drivers(t *testing.T) {
	cfg := swarm.Default()
	cfg.FileKiB = 1024
	cfg.PieceKiB = 128
	for _, f := range []func(int, int, swarm.Config) ([]swarm.MixPoint, error){Fig9a, Fig9b, Fig9c} {
		pts, err := f(10, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(Fig9Fractions) {
			t.Fatalf("points = %d, want %d", len(pts), len(Fig9Fractions))
		}
	}
}

func TestFig10Driver(t *testing.T) {
	cfg := swarm.Default()
	cfg.FileKiB = 1024
	cfg.PieceKiB = 128
	out, err := Fig10(10, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(Fig10Clients) {
		t.Fatalf("clients = %d", len(out))
	}
	for c, ci := range out {
		if ci.Mean <= 0 || math.IsNaN(ci.Mean) {
			t.Errorf("%s mean = %v", c, ci.Mean)
		}
	}
}

func TestNash(t *testing.T) {
	rep, err := Nash()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BTVerdict.IsEquilibrium() {
		t.Error("BT should not be an equilibrium")
	}
	if !rep.BirdsVerdict.IsEquilibrium() {
		t.Error("Birds should be an equilibrium")
	}
	if rep.Example.Validate() != nil {
		t.Error("example params invalid")
	}
}
