// Command dsa-report renders sweep reports for any registered domain.
// For the swarming domain it reproduces the paper's figures and tables
// from a dsa-sweep CSV (Figures 2-8 and Table 3) or by running the
// extra simulations they need (90-10 validation, churn sensitivity);
// for every other domain it renders the generic reports (top, scatter)
// from the domain CSV.
//
// Usage:
//
//	dsa-report -in results.csv fig2|fig3|fig4|fig5|fig6|fig7|fig8|table3|top
//	dsa-report -checkpoint DIR fig2|...|top
//	dsa-report -checkpoint DIR -out results.csv merge
//	dsa-report -coordinator http://host:8437 [-job ID] fig2|...|top|merge
//	dsa-report [-preset quick] [-stride N] validate|churn
//	dsa-report -domain gossip|delivery [-in results.csv | -checkpoint DIR | -coordinator URL] top|scatter
//	dsa-report -domain gossip|delivery -checkpoint DIR -out results.csv merge
//	dsa-report -cache-dir DIR cache
//	dsa-report -coordinator http://host:8437 cache
//	dsa-report trace DIR|URL [-job ID] [-merged out.jsonl]
//
// -checkpoint reads the scores straight out of a dsa-sweep checkpoint
// directory (the merged manifests of one or more shard processes)
// instead of a CSV; merge additionally writes the assembled scores to
// the domain's CSV for downstream tooling. To merge shards that ran on
// separate machines, copy every shard dir's manifest-*.jsonl next to
// one spec.json first.
//
// -coordinator fetches the assembled scores live from a dsa-grid
// coordinator's results API instead of any local file — no copying at
// all. -job selects the job; by default the first job of the report's
// -domain is used. An incomplete job is reported as an error with its
// progress.
//
// The cache report inspects a content-addressed score cache: with
// -cache-dir it opens the local store (read-only — entries, on-disk
// bytes, records dropped as corrupt), with -coordinator it fetches the
// live counters from GET /v1/cache (hits, misses, tasks served without
// dispatch).
//
// The trace report merges every trace-*.jsonl span journal in DIR —
// however many sweep shards and grid workers appended there — onto one
// timeline and renders where the time went: critical path, per-measure
// task latency with histograms, straggler tasks, cache-hit attribution
// and per-worker utilization. Journals are crash-tolerant: a torn
// final line (the writer died mid-append) is skipped, not fatal.
// Given a coordinator URL (http:// or https://) instead of a
// directory, the report fetches the journals the coordinator collected
// from trace-shipping workers (GET /v1/trace) and renders the same
// analysis — no copying. -job narrows it to one job's trace; -merged
// additionally writes the canonically merged journal to a file.
//
// -cpuprofile / -memprofile write pprof profiles of the report itself —
// the sim-backed reports (validate, churn) run real sweeps, and trace
// can chew through multi-gigabyte journals.
package main

import (
	"context"
	"flag"
	"fmt"
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

	// Register the domains this tool can report on.
	_ "repro/internal/delivery"
	_ "repro/internal/gossip"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsa-report: ")
	var (
		domain  = flag.String("domain", pra.DomainName, "design space the input covers, one of: "+strings.Join(dsa.Names(), ", "))
		in      = flag.String("in", "results.csv", "CSV produced by dsa-sweep")
		ckpt    = flag.String("checkpoint", "", "dsa-sweep checkpoint dir to read instead of -in")
		coord   = flag.String("coordinator", "", "dsa-grid coordinator URL to fetch scores from instead of -in")
		cacheD  = flag.String("cache-dir", "", "score cache directory (cache report)")
		jobID   = flag.String("job", "", "coordinator job ID (default: the first job of -domain)")
		out     = flag.String("out", "results.csv", "output CSV path (merge)")
		merged  = flag.String("merged", "", "also write the canonically merged journal (JSONL) to this path (trace report)")
		preset  = flag.String("preset", "quick", "quick or paper (validate/churn)")
		stride  = flag.Int("stride", 30, "protocol stride for validate/churn")
		seed    = flag.Int64("seed", 1, "master seed for validate/churn")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of this report to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (post-GC) to this file on completion")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		log.Fatal("usage: dsa-report [flags] fig2|fig3|fig4|fig5|fig6|fig7|fig8|table3|top|merge|validate|churn (swarming), top|scatter|merge (-domain others), cache, or trace DIR")
	}
	what := flag.Arg(0)
	stopProf, profErr := profiling.Start(*cpuProf, *memProf)
	if profErr != nil {
		log.Fatal(profErr)
	}
	defer stopProf()

	if what == "trace" {
		if flag.NArg() != 2 {
			log.Fatal("usage: dsa-report trace DIR|URL (a -trace-dir holding trace-*.jsonl journals, or a coordinator URL collecting shipped traces)")
		}
		runTrace(flag.Arg(1), *jobID, *merged)
		return
	}
	if flag.NArg() != 1 {
		log.Fatalf("report %q takes no argument", what)
	}

	if what == "cache" {
		runCacheReport(*cacheD, *coord)
		return
	}

	if *domain != pra.DomainName {
		d, err := dsa.Get(*domain)
		if err != nil {
			log.Fatal(err)
		}
		runGeneric(d, what, *in, *ckpt, *coord, *jobID, *out)
		return
	}

	switch what {
	case "validate", "churn":
		runSimBacked(what, *preset, *stride, *seed)
		return
	}

	var res *exp.SweepResult
	var err error
	if *coord != "" {
		var s *dsa.Scores
		if s, err = fetchGrid(*coord, *jobID, pra.Domain()); err == nil {
			var typed *pra.Scores
			if typed, err = pra.ScoresFromGeneric(s); err == nil {
				res = &exp.SweepResult{Protocols: typed.Protocols, Scores: typed}
			}
		}
	} else if *ckpt != "" {
		res, err = exp.LoadCheckpoint(*ckpt)
	} else if what == "merge" {
		err = fmt.Errorf("merge needs -checkpoint or -coordinator")
	} else {
		res, err = load(*in)
	}
	if err != nil {
		log.Fatal(err)
	}
	w := os.Stdout
	switch what {
	case "merge":
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		src := *ckpt
		if *coord != "" {
			src = *coord
		}
		log.Printf("merged %s into %s (%d rows)", src, *out, len(res.Protocols))
	case "fig2":
		xs, ys := res.Fig2()
		fmt.Fprintf(w, "Figure 2: Robustness vs Performance, %d protocols\n", len(xs))
		if err := report.Scatter(w, xs, ys, 72, 24, "Robustness", "Performance"); err != nil {
			log.Fatal(err)
		}
	case "fig3", "fig4":
		const bins = 10
		h := res.Fig3(bins)
		label := "Performance"
		if what == "fig4" {
			h = res.Fig4(bins)
			label = "Robustness"
		}
		fmt.Fprintf(w, "Figure %s: %s histograms by partner count (columns k=0..9)\n", what[3:], label)
		err := report.Heat(w, h.RowNormalized, bins, design.MaxPartners+1, func(b int) string {
			return fmt.Sprintf("%.1f-%.1f", float64(b)/bins, float64(b+1)/bins)
		})
		if err != nil {
			log.Fatal(err)
		}
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
	case "fig6", "fig7":
		pts := res.Fig6()
		title := "allocation policy"
		if what == "fig7" {
			pts = res.Fig7()
			title = "ranking function"
		}
		fmt.Fprintf(w, "Figure %s: Robustness by %s (mean / max)\n", what[3:], title)
		renderGroups(w, pts)
	case "fig8":
		_, _, pearson, err := res.Fig8()
		if err != nil {
			log.Fatal(err)
		}
		xs, ys, _, _ := res.Fig8()
		fmt.Fprintf(w, "Figure 8: Robustness vs Aggressiveness, Pearson r = %.3f (paper: 0.96)\n", pearson)
		if err := report.Scatter(w, xs, ys, 72, 24, "Robustness", "Aggressiveness"); err != nil {
			log.Fatal(err)
		}
	case "table3":
		perf, rob, agg, err := res.Table3()
		if err != nil {
			log.Fatal(err)
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
		if err := tbl.Render(w); err != nil {
			log.Fatal(err)
		}
	case "top":
		renderTop(w, res)
	default:
		log.Fatalf("unknown report %q", what)
	}
}

func sig(ok bool) string {
	if ok {
		return "OK"
	}
	return "-"
}

// load parses a dsa-sweep CSV back into a SweepResult.
func load(path string) (*exp.SweepResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return exp.ReadCSV(f)
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

func renderGroups(w *os.File, pts []exp.GroupPoint) {
	sums := map[string]float64{}
	maxs := map[string]float64{}
	counts := map[string]int{}
	for _, p := range pts {
		sums[p.Group] += p.Robustness
		counts[p.Group]++
		if p.Robustness > maxs[p.Group] {
			maxs[p.Group] = p.Robustness
		}
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	tbl := report.NewTable("group", "n", "mean R", "max R")
	for _, n := range names {
		tbl.Add(n, counts[n], sums[n]/float64(counts[n]), maxs[n])
	}
	if err := tbl.Render(w); err != nil {
		log.Fatal(err)
	}
}

func renderTop(w *os.File, res *exp.SweepResult) {
	type row struct {
		p    design.Protocol
		perf float64
		rob  float64
	}
	rows := make([]row, len(res.Protocols))
	for i, p := range res.Protocols {
		rows[i] = row{p, res.Scores.Performance[i], res.Scores.Robustness[i]}
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runCacheReport renders the cache stats view: the live counters of a
// coordinator's cross-job cache, or the on-disk state of a local
// cache directory (opening claims no write segment until a first Put,
// which a stats view never issues, so it is safe against a cache in
// active use).
func runCacheReport(cacheDir, coord string) {
	w := os.Stdout
	switch {
	case coord != "":
		resp, err := grid.FetchCacheStats(context.Background(), nil, coord)
		if err != nil {
			log.Fatal(err)
		}
		if !resp.Enabled {
			fmt.Fprintf(w, "coordinator %s runs without a score cache (start dsa-grid serve with -cache-dir)\n", coord)
			return
		}
		fmt.Fprintf(w, "score cache at %s:\n", coord)
		printCacheStats(w, resp.CacheStats)
	case cacheDir != "":
		// Stat before Open: Open would create a missing directory, and
		// a stats view of a mistyped path must fail loudly rather than
		// report a healthy empty cache.
		if info, err := os.Stat(cacheDir); err != nil {
			log.Fatalf("cache dir: %v", err)
		} else if !info.IsDir() {
			log.Fatalf("cache dir %s is not a directory", cacheDir)
		}
		store, err := cache.Open(cache.Options{Dir: cacheDir})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		fmt.Fprintf(w, "score cache %s:\n", cacheDir)
		printCacheStats(w, store.Stats())
	default:
		log.Fatal("cache needs -cache-dir or -coordinator")
	}
}

func printCacheStats(w *os.File, st dsa.CacheStats) {
	tbl := report.NewTable("metric", "value")
	tbl.Add("entries", st.Entries)
	tbl.Add("bytes on disk", st.Bytes)
	tbl.Add("resident in memory", st.MemEntries)
	tbl.Add("hits", st.Hits)
	tbl.Add("misses", st.Misses)
	tbl.Add("puts", st.Puts)
	tbl.Add("lru evictions", st.Evictions)
	tbl.Add("records dropped", st.Dropped)
	tbl.Add("computations deduplicated", st.FlightWait)
	if err := tbl.Render(w); err != nil {
		log.Fatal(err)
	}
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

// runGeneric renders the domain-agnostic reports: merge (checkpoint or
// coordinator → CSV), top (best points per measure) and scatter
// (second measure vs first). It never touches any file-swarming code
// path — every fact it needs comes through the dsa.Domain interface.
func runGeneric(d dsa.Domain, what, in, ckpt, coord, jobID, out string) {
	var s *dsa.Scores
	var err error
	switch {
	case coord != "":
		s, err = fetchGrid(coord, jobID, d)
	case ckpt != "":
		s, err = job.Load(ckpt)
		if err == nil && s.Domain != d.Name() {
			err = fmt.Errorf("checkpoint %s holds a %q sweep, not %q", ckpt, s.Domain, d.Name())
		}
	case what == "merge":
		err = fmt.Errorf("merge needs -checkpoint or -coordinator")
	default:
		var f *os.File
		if f, err = os.Open(in); err == nil {
			s, err = dsa.ReadCSV(f, d)
			f.Close()
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	switch what {
	case "merge":
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		if err := dsa.WriteCSV(f, d, s); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		src := ckpt
		if coord != "" {
			src = coord
		}
		log.Printf("merged %s into %s (%d rows)", src, out, len(s.Points))
	case "top":
		for _, m := range d.Measures() {
			vals := s.Measure(m)
			order := make([]int, len(s.Points))
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
			fmt.Printf("Top 10 by %s:\n", m)
			for _, i := range order[:min(10, len(order))] {
				fmt.Printf("  ")
				for _, mm := range d.Measures() {
					fmt.Printf("%s=%.4f ", mm, s.Measure(mm)[i])
				}
				fmt.Printf(" %s\n", d.Label(s.Points[i]))
			}
		}
	case "scatter":
		ms := d.Measures()
		if len(ms) < 2 {
			log.Fatalf("domain %q has a single measure; nothing to scatter", d.Name())
		}
		xs, ys := s.Measure(ms[1]), s.Measure(ms[0])
		fmt.Printf("%s vs %s, %d %s points\n", ms[1], ms[0], len(xs), d.Name())
		if err := report.Scatter(os.Stdout, xs, ys, 72, 24, ms[1], ms[0]); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("report %q is not available for domain %q (generic reports: top, scatter, merge)", what, d.Name())
	}
}

// runSimBacked handles the reports that need fresh simulation: the
// 90-10 robustness validation and the churn sensitivity check.
func runSimBacked(what, preset string, stride int, seed int64) {
	var cfg pra.Config
	switch preset {
	case "quick":
		cfg = pra.Quick()
	case "paper":
		cfg = pra.Paper()
	default:
		log.Fatalf("unknown preset %q", preset)
	}
	cfg.Seed = seed
	all := design.Enumerate()
	var protos []design.Protocol
	for i := 0; i < len(all); i += stride {
		protos = append(protos, all[i])
	}
	switch what {
	case "validate":
		res, err := exp.Sweep(protos, cfg)
		if err != nil {
			log.Fatal(err)
		}
		_, _, pearson, err := res.Validate9010(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("50-50 vs 90-10 robustness over %d protocols: Pearson r = %.3f (paper: 0.97)\n",
			len(protos), pearson)
	case "churn":
		pts, err := exp.ChurnSweep(protos, []float64{0, 0.01, 0.1}, cfg)
		if err != nil {
			log.Fatal(err)
		}
		tbl := report.NewTable("churn", "k=0", "k=1", "k=2", "k=3", "k=4", "k=5", "k=6", "k=7", "k=8", "k=9")
		for _, pt := range pts {
			cells := []interface{}{pt.Churn}
			for _, v := range pt.MeanPerfK {
				cells = append(cells, v)
			}
			tbl.Add(cells...)
		}
		fmt.Println("Mean normalised performance by partner count under churn (§4.4):")
		if err := tbl.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
