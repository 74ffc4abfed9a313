// Command dsa-report renders sweep reports for any registered domain:
// the paper's figures and tables for the swarming domain (Figures 2-8,
// Table 3, the 90-10 validation and churn checks, and the fidelity
// ledger of the paper's claims over ten seeds), the generic top and
// scatter reports for every domain, the sweep-free analyses of Section
// 2 (nash) and Section 5 (fig9a|fig9b|fig9c|fig10, fig9 = the three
// Figure 9 panels), score-cache counters and span-journal analysis.
//
// Usage:
//
//	dsa-report -in results.csv fig2|fig3|fig4|fig5|fig6|fig7|fig8|table3|top
//	dsa-report -checkpoint DIR fig2|...|top
//	dsa-report -checkpoint DIR -out results.csv merge
//	dsa-report -coordinator http://host:8437 [-job ID] fig2|...|top|merge
//	dsa-report [-preset quick] [-stride N] validate|churn|fidelity
//	dsa-report -domain gossip|delivery [-in results.csv | -checkpoint DIR | -coordinator URL] top|scatter
//	dsa-report -domain gossip|delivery -checkpoint DIR -out results.csv merge
//	dsa-report -cache-dir DIR cache
//	dsa-report -coordinator http://host:8437 cache
//	dsa-report trace DIR|URL [-job ID] [-merged out.jsonl]
//	dsa-report nash [-na 20] [-nb 15] [-nc 15] [-ur 4] [-f 100] [-s 20]
//	dsa-report fig9a|fig9b|fig9c|fig10|fig9 [-leechers 50] [-runs 10] [-seed 1]
//
// The global flags come before the report name; nash and the Figure 9/10
// reports take their own flags after it. `dsa-report -h` gives each
// flag's meaning; DESIGN.md's experiment index maps every report to the
// paper.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/design"
	"repro/internal/dsa"
	"repro/internal/exp"
	"repro/internal/grid"
	"repro/internal/job"
	"repro/internal/pra"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/swarm"

	// Register the domains this tool can report on.
	_ "repro/internal/delivery"
	_ "repro/internal/gossip"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsa-report: ")
	// The sweep-shaping flags this tool has: -domain for every report,
	// the other three for the fresh swarming sweeps of validate and
	// churn. The scale overrides it does not have stay at "keep the
	// preset", which for -opponents is -1, not 0.
	sweep := job.SweepFlags{Opponents: -1}
	flag.StringVar(&sweep.Domain, "domain", pra.DomainName, "design space the input covers, one of: "+strings.Join(dsa.Names(), ", "))
	flag.StringVar(&sweep.Preset, "preset", "quick", "quick or paper (validate/churn/fidelity)")
	flag.IntVar(&sweep.Stride, "stride", 30, "protocol stride for validate/churn/fidelity")
	flag.Int64Var(&sweep.Seed, "seed", 1, "master seed for validate/churn")
	var (
		in      = flag.String("in", "results.csv", "CSV produced by dsa-sweep")
		ckpt    = flag.String("checkpoint", "", "dsa-sweep checkpoint dir to read instead of -in")
		coord   = flag.String("coordinator", "", "dsa-grid coordinator URL to fetch scores from instead of -in")
		cacheD  = flag.String("cache-dir", "", "score cache directory (cache report)")
		jobID   = flag.String("job", "", "coordinator job ID (default: the first job of -domain)")
		out     = flag.String("out", "results.csv", "output CSV path (merge)")
		merged  = flag.String("merged", "", "also write the canonically merged journal (JSONL) to this path (trace report)")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of this report to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on completion")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: dsa-report [flags] fig2|fig3|fig4|fig5|fig6|fig7|fig8|table3|top|merge|validate|churn|fidelity (swarming), top|scatter|merge (-domain others), cache, trace DIR, nash [flags], or fig9a|fig9b|fig9c|fig10|fig9 [flags]")
	}
	what, args := flag.Arg(0), flag.Args()[1:]
	stopProf, profErr := profiling.Start(*cpuProf, *memProf)
	if profErr != nil {
		log.Fatal(profErr)
	}
	defer stopProf()

	var err error
	switch {
	case what == "trace":
		if len(args) != 1 {
			log.Fatal("usage: dsa-report trace DIR|URL (a -trace-dir holding trace-*.jsonl journals, or a coordinator URL collecting shipped traces)")
		}
		runTrace(args[0], *jobID, *merged)
	case what == "nash":
		err = runNash(os.Stdout, args)
	case what == "fig10" || strings.HasPrefix(what, "fig9"):
		err = runSwarm(os.Stdout, what, args)
	case len(args) != 0:
		err = fmt.Errorf("report %q takes no argument", what)
	case what == "cache":
		err = runCacheReport(os.Stdout, *cacheD, *coord)
	case sweep.Domain == pra.DomainName && (what == "validate" || what == "churn" || what == "fidelity"):
		err = runSimBacked(os.Stdout, what, &sweep)
	default:
		err = runScores(os.Stdout, what, sweep.Domain, *in, *ckpt, *coord, *jobID, *out)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runScores handles every report over assembled scores: it loads them
// once, for any domain, and hands them to merge, to the paper's
// figure/table renderers (swarming) or to the generic renderers.
func runScores(w io.Writer, what, domain, in, ckpt, coord, jobID, out string) error {
	d, err := dsa.Get(domain)
	if err != nil {
		return err
	}
	if what == "merge" && ckpt == "" && coord == "" {
		return errors.New("merge needs -checkpoint or -coordinator")
	}
	s, err := loadScores(d, in, ckpt, coord, jobID)
	if err != nil {
		return err
	}
	switch {
	case what == "merge":
		return merge(d, s, cmp.Or(coord, ckpt), out)
	case d.Name() == pra.DomainName:
		res, err := exp.NewSweepResult(s)
		if err != nil {
			return err
		}
		return renderSwarming(w, what, res)
	}
	return renderGeneric(w, what, d, s)
}

// loadScores reads a domain's assembled scores from a coordinator's
// results API, a checkpoint directory or a CSV — whichever of
// -coordinator, -checkpoint and -in is set, in that order.
func loadScores(d dsa.Domain, in, ckpt, coord, jobID string) (*dsa.Scores, error) {
	switch {
	case coord != "":
		return fetchGrid(coord, jobID, d)
	case ckpt != "":
		s, err := job.Load(ckpt)
		if err == nil && s.Domain != d.Name() {
			err = fmt.Errorf("checkpoint %s holds a %q sweep, not %q", ckpt, s.Domain, d.Name())
		}
		return s, err
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dsa.ReadCSV(f, d)
}

// merge writes the scores loaded from src (a checkpoint or a
// coordinator) to the domain's canonical CSV.
func merge(d dsa.Domain, s *dsa.Scores, src, out string) error {
	if err := dsa.WriteCSVFile(out, d, s); err != nil {
		return err
	}
	log.Printf("merged %s into %s (%d rows)", src, out, len(s.Points))
	return nil
}

// renderSwarming renders the paper's CSV-backed reports: Figures 2-8,
// Table 3 and the protocol ranking.
func renderSwarming(w io.Writer, what string, res *exp.SweepResult) error {
	switch what {
	case "fig2":
		xs, ys := res.Fig2()
		fmt.Fprintf(w, "Figure 2: Robustness vs Performance, %d protocols\n", len(xs))
		return report.Scatter(w, xs, ys, 72, 24, "Robustness", "Performance")
	case "fig3", "fig4":
		const bins = 10
		h := res.Fig3(bins)
		label := "Performance"
		if what == "fig4" {
			h = res.Fig4(bins)
			label = "Robustness"
		}
		fmt.Fprintf(w, "Figure %s: %s histograms by partner count (columns k=0..9)\n", what[3:], label)
		return report.Heat(w, h.RowNormalized, bins, design.MaxPartners+1, func(b int) string {
			return fmt.Sprintf("%.1f-%.1f", float64(b)/bins, float64(b+1)/bins)
		})
	case "fig5":
		curves := res.Fig5()
		fmt.Fprintln(w, "Figure 5: CCDF of Robustness by stranger policy")
		names := make([]string, 0, len(curves))
		for name := range curves {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "%s:\n", name)
			for _, pt := range thin(curves[name], 8) {
				fmt.Fprintf(w, "  P(R > %.3f) = %.3f\n", pt.X, pt.P)
			}
		}
		return nil
	case "fig6", "fig7":
		pts := res.Fig6()
		title := "allocation policy"
		if what == "fig7" {
			pts = res.Fig7()
			title = "ranking function"
		}
		fmt.Fprintf(w, "Figure %s: Robustness by %s (mean / max)\n", what[3:], title)
		return renderGroups(w, pts)
	case "fig8":
		xs, ys, pearson, err := res.Fig8()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 8: Robustness vs Aggressiveness, Pearson r = %.3f (paper: 0.96)\n", pearson)
		return report.Scatter(w, xs, ys, 72, 24, "Robustness", "Aggressiveness")
	case "table3":
		perf, rob, agg, err := res.Table3()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Table 3: OLS over %d protocols (adj R²: P=%.2f R=%.2f A=%.2f)\n",
			len(res.Protocols), perf.AdjR2, rob.AdjR2, agg.AdjR2)
		tbl := report.NewTable("variable", "P est", "P t", "P sig", "R est", "R t", "R sig", "A est", "A t", "A sig")
		for _, c := range perf.Coefficients {
			rc, ac := rob.Coef(c.Name), agg.Coef(c.Name)
			tbl.Add(c.Name,
				c.Estimate, c.TValue, sig(c.Significant(0.001)),
				rc.Estimate, rc.TValue, sig(rc.Significant(0.001)),
				ac.Estimate, ac.TValue, sig(ac.Significant(0.001)))
		}
		return tbl.Render(w)
	case "top":
		renderTop(w, res)
		return nil
	}
	return fmt.Errorf("unknown report %q", what)
}

func sig(ok bool) string {
	if ok {
		return "OK"
	}
	return "-"
}

func thin(pts []stats.CCDFPoint, n int) []stats.CCDFPoint {
	if len(pts) <= n {
		return pts
	}
	out := make([]stats.CCDFPoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*len(pts)/n])
	}
	return out
}

func renderGroups(w io.Writer, pts []exp.GroupPoint) error {
	groups := map[string][]float64{}
	for _, p := range pts {
		groups[p.Group] = append(groups[p.Group], p.Robustness)
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	tbl := report.NewTable("group", "n", "mean R", "max R")
	for _, n := range names {
		tbl.Add(n, len(groups[n]), stats.Mean(groups[n]), stats.Max(groups[n]))
	}
	return tbl.Render(w)
}

func renderTop(w io.Writer, res *exp.SweepResult) {
	type row struct {
		p    design.Protocol
		perf float64
		rob  float64
	}
	perf, rob := res.Scores.Measure(pra.MeasurePerformance), res.Scores.Measure(pra.MeasureRobustness)
	rows := make([]row, len(res.Protocols))
	for i, p := range res.Protocols {
		rows[i] = row{p, perf[i], rob[i]}
	}
	byPerf := append([]row(nil), rows...)
	sort.Slice(byPerf, func(a, b int) bool { return byPerf[a].perf > byPerf[b].perf })
	byRob := append([]row(nil), rows...)
	sort.Slice(byRob, func(a, b int) bool { return byRob[a].rob > byRob[b].rob })
	fmt.Fprintln(w, "Top 10 by Performance:")
	for _, r := range byPerf[:min(10, len(byPerf))] {
		fmt.Fprintf(w, "  P=%.4f R=%.4f  %s\n", r.perf, r.rob, r.p)
	}
	fmt.Fprintln(w, "Top 10 by Robustness:")
	for _, r := range byRob[:min(10, len(byRob))] {
		fmt.Fprintf(w, "  P=%.4f R=%.4f  %s\n", r.perf, r.rob, r.p)
	}
}

// runCacheReport renders the cache stats view: the live counters of a
// coordinator's cross-job cache, or the on-disk state of a local
// cache directory (opening claims no write segment until a first Put,
// which a stats view never issues, so it is safe against a cache in
// active use).
func runCacheReport(w io.Writer, cacheDir, coord string) error {
	switch {
	case coord != "":
		resp, err := grid.FetchCacheStats(context.Background(), nil, coord)
		if err != nil {
			return err
		}
		if !resp.Enabled {
			fmt.Fprintf(w, "coordinator %s runs without a score cache (start dsa-grid serve with -cache-dir)\n", coord)
			return nil
		}
		fmt.Fprintf(w, "score cache at %s:\n", coord)
		return printCacheStats(w, resp.CacheStats)
	case cacheDir != "":
		// Stat before Open: Open would create a missing directory, and
		// a stats view of a mistyped path must fail loudly rather than
		// report a healthy empty cache.
		if info, err := os.Stat(cacheDir); err != nil {
			return fmt.Errorf("cache dir: %v", err)
		} else if !info.IsDir() {
			return fmt.Errorf("cache dir %s is not a directory", cacheDir)
		}
		store, err := cache.Open(cache.Options{Dir: cacheDir})
		if err != nil {
			return err
		}
		defer store.Close()
		fmt.Fprintf(w, "score cache %s:\n", cacheDir)
		return printCacheStats(w, store.Stats())
	}
	return errors.New("cache needs -cache-dir or -coordinator")
}

func printCacheStats(w io.Writer, st dsa.CacheStats) error {
	tbl := report.NewTable("metric", "value")
	tbl.Add("entries", st.Entries)
	tbl.Add("bytes on disk", st.Bytes)
	tbl.Add("hits", st.Hits)
	tbl.Add("misses", st.Misses)
	tbl.Add("puts", st.Puts)
	tbl.Add("records dropped", st.Dropped)
	return tbl.Render(w)
}

// fetchGrid pulls assembled scores from a dsa-grid coordinator's
// results API. With an empty jobID the first job of the report's
// domain is used.
func fetchGrid(baseURL, jobID string, d dsa.Domain) (*dsa.Scores, error) {
	ctx := context.Background()
	if jobID == "" {
		jobs, err := grid.ListJobs(ctx, nil, baseURL)
		if err != nil {
			return nil, err
		}
		// Prefer a complete job of the domain — a report wants scores
		// that exist — falling back to the first (still-running) one,
		// whose fetch will explain the 'incomplete' state.
		for _, j := range jobs {
			if j.Domain != d.Name() {
				continue
			}
			if jobID == "" {
				jobID = j.ID
			}
			if j.Complete {
				jobID = j.ID
				break
			}
		}
		if jobID == "" {
			return nil, fmt.Errorf("coordinator %s has no %q job (pass -job to pick one)", baseURL, d.Name())
		}
	}
	s, err := grid.FetchScores(ctx, nil, baseURL, jobID)
	if err != nil {
		return nil, err
	}
	if s.Domain != d.Name() {
		return nil, fmt.Errorf("coordinator job %s holds a %q sweep, not %q", jobID, s.Domain, d.Name())
	}
	return s, nil
}

// renderGeneric renders the domain-agnostic reports: top (best points
// per measure) and scatter (second measure vs first). Every fact it
// needs comes through the dsa.Domain interface.
func renderGeneric(w io.Writer, what string, d dsa.Domain, s *dsa.Scores) error {
	ms := d.Measures()
	switch what {
	case "top":
		for _, m := range ms {
			vals := s.Measure(m)
			order := make([]int, len(s.Points))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
			fmt.Fprintf(w, "Top 10 by %s:\n", m)
			for _, i := range order[:min(10, len(order))] {
				fmt.Fprintf(w, "  ")
				for _, mm := range ms {
					fmt.Fprintf(w, "%s=%.4f ", mm, s.Measure(mm)[i])
				}
				fmt.Fprintf(w, " %s\n", d.Label(s.Points[i]))
			}
		}
		return nil
	case "scatter":
		if len(ms) < 2 {
			return fmt.Errorf("domain %q has a single measure; nothing to scatter", d.Name())
		}
		xs, ys := s.Measure(ms[1]), s.Measure(ms[0])
		fmt.Fprintf(w, "%s vs %s, %d %s points\n", ms[1], ms[0], len(xs), d.Name())
		return report.Scatter(w, xs, ys, 72, 24, ms[1], ms[0])
	}
	return fmt.Errorf("report %q is not available for domain %q (generic reports: top, scatter, merge)", what, d.Name())
}

// runSimBacked handles the reports that need fresh simulation: the
// 90-10 robustness validation, the churn sensitivity check and the
// fidelity ledger.
func runSimBacked(w io.Writer, what string, sweep *job.SweepFlags) error {
	spec, err := sweep.Spec()
	if err != nil {
		return err
	}
	cfg := spec.Cfg
	protos, err := pra.Protocols(spec.Points)
	if err != nil {
		return err
	}
	switch what {
	case "fidelity":
		return runFidelity(w, exp.LedgerScale{
			Label:     fmt.Sprintf("%s preset, stride %d", sweep.Preset, sweep.Stride),
			Protocols: protos, Cfg: cfg,
			// The Figure 9/10 row runs at those reports' defaults.
			Swarm: swarm.Default(), Leechers: 50, Runs: 10,
			Seeds: exp.FidelitySeeds,
		})
	case "validate":
		res, err := exp.Sweep(protos, cfg)
		if err != nil {
			return err
		}
		_, _, pearson, err := res.Validate9010(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "50-50 vs 90-10 robustness over %d protocols: Pearson r = %.3f (paper: 0.97)\n",
			len(protos), pearson)
		return nil
	}
	pts, err := exp.ChurnSweep(protos, []float64{0, 0.01, 0.1}, cfg)
	if err != nil {
		return err
	}
	tbl := report.NewTable("churn", "k=0", "k=1", "k=2", "k=3", "k=4", "k=5", "k=6", "k=7", "k=8", "k=9")
	for _, pt := range pts {
		cells := []interface{}{pt.Churn}
		for _, v := range pt.MeanPerfK {
			cells = append(cells, v)
		}
		tbl.Add(cells...)
	}
	fmt.Fprintln(w, "Mean normalised performance by partner count under churn (§4.4):")
	return tbl.Render(w)
}
