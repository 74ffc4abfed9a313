// Command bench is the repo's perf ledger: four sweep workloads, the
// end-to-end metrics a user of the repo feels, and a per-layer budget
// that says which layer to optimise next. See README.md in this
// directory for the metric dictionary and the prediction table.
//
//	go run ./bench                                  every workload, end to end then per layer
//	go run ./bench -workload NAME -trace 0|1        one workload, one mode (what the driver runs)
//	go run ./bench -repeat 2                        the full set twice, compared against the bounds
//	go run ./bench -compare a/results.json b/results.json
//
// It is a package main that imports only the repo's public functions;
// it adds no knob, environment variable or code path to the program
// under test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runInfo is the load shape and machine a results file was measured on.
type runInfo struct {
	P          int    `json:"p"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Filesystem string `json:"workdir_filesystem"`
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Info runInfo       `json:"info"`
	Runs []*unitResult `json:"runs"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "all", "workload to run, or all")
		seed         = fs.Int64("seed", 1, "picks the order of every sweep's point list (same points, same work, other task make-up)")
		seconds      = fs.Float64("seconds", defaultSeconds, "timed window per workload, in seconds")
		traceMode    = fs.String("trace", "both", "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from the traced run and the probes, both = one after the other")
		outDir       = fs.String("out", "", "directory for results.json and the span JSONL files (nothing is written when empty)")
		workBase     = fs.String("workdir", ".bench_work", "directory all temporary state lives under; this run's subdirectory is removed on exit")
		repeat       = fs.Int("repeat", 1, "run the selected set this many times and compare the end-to-end metrics against their bounds")
		compare      = fs.Bool("compare", false, "compare two results.json files given as arguments (parent first) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args(), stdout, stderr)
	}
	var selected []workload
	if *workloadName == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*workloadName); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	if *traceMode != "0" && *traceMode != "1" && *traceMode != "both" {
		fmt.Fprintf(stderr, "bench: -trace must be 0, 1 or both, got %q\n", *traceMode)
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive, -repeat at least 1, and only -compare takes arguments")
		return 2
	}

	// SIGINT and SIGTERM cancel the sweep in flight; every exit path
	// below then runs the deferred removal of this run's workdir.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{p: min(runtime.NumCPU(), 4), seed: *seed,
		workdir: filepath.Join(*workBase, fmt.Sprintf("run-%d", os.Getpid()))}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer func() {
		os.RemoveAll(e.workdir)
		os.Remove(*workBase) // only succeeds once no other run is using it
	}()
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}

	file := resultsFile{Info: runInfo{P: e.p, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Filesystem: filesystemOf(e.workdir)}}
	fmt.Fprintf(stdout, "# bench P=%d GOMAXPROCS=%d %s commit=%s workdir=%s (%s) seed=%d seconds=%g\n",
		e.p, file.Info.GOMAXPROCS, file.Info.GoVersion, file.Info.Commit, e.workdir, file.Info.Filesystem, *seed, *seconds)

	code := 0
	for rep := 1; rep <= *repeat; rep++ {
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if (traced && *traceMode == "0") || (!traced && *traceMode == "1") {
					continue
				}
				var (
					r   *unitResult
					err error
				)
				if traced {
					spans := ""
					if *outDir != "" {
						spans = filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, rep))
					}
					r, err = runPerLayer(ctx, e, w, *seconds, spans)
				} else {
					r, err = runEndToEnd(ctx, e, w, *seconds)
				}
				if err != nil {
					// No result line: the run did not measure anything it can stand behind.
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if err := report(stdout, r); err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				if r.Failed > 0 {
					fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed; first: %s\n", w.name, r.Failed, r.Attempted, r.FirstFail)
					code = 1
				}
				file.Runs = append(file.Runs, r)
			}
		}
	}
	if *outDir != "" {
		raw, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(*outDir, "results.json"), raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *repeat > 1 && !withinBounds(stdout, file.Runs) {
		code = 1
	}
	return code
}

// report prints every metric of r as "workload name value unit", then
// the one-line JSON object the driver reads.
func report(w io.Writer, r *unitResult) error {
	type wireMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]wireMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]wireMetric{}}
	printMetric := func(name string, m metric) {
		note := ""
		if m.Note != "" {
			note = " " + m.Note
		}
		fmt.Fprintf(w, "%s %s %.6g %s n=%d%s\n", r.Workload, name, m.Value, m.Unit, m.N, note)
	}
	for _, d := range defsFor(r.Traced) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		printMetric(d.Name, m)
		line.Metrics[d.Name] = wireMetric{m.Value, m.Unit}
	}
	for _, name := range []string{"failed_share", "sweeps", "sweep.median_s", "sweep.tail_s", "reload.median_s"} {
		if m, ok := r.Info[name]; ok {
			printMetric(name, m)
		}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// endToEndValues groups the untraced runs' values by workload and metric, in run order.
func endToEndValues(runs []*unitResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// withinBounds prints, per workload x end-to-end metric, the value of
// every repeat, the largest relative difference between them and the
// bound, and reports whether every difference stays inside its bound.
func withinBounds(w io.Writer, runs []*unitResult) bool {
	values := endToEndValues(runs)
	ok := true
	fmt.Fprintln(w, "# repeat check: workload metric values... rel_diff bound verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			vs := values[wl.name][d.Name]
			if len(vs) < 2 {
				continue
			}
			lo, hi := slices.Min(vs), slices.Max(vs)
			diff := 0.0
			if lo > 0 {
				diff = (hi - lo) / lo
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Fprintf(w, "%s %s %.6g %.4f %.2f %s\n", wl.name, d.Name, vs, diff, d.Bound, verdict)
		}
	}
	return ok
}

// compareFiles prints one row per workload x end-to-end metric of two
// results files with the verdict of compareRuns.
func compareFiles(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two results.json files: parent, then change")
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		var f resultsFile
		if err == nil {
			err = json.Unmarshal(raw, &f)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", p, err)
			return 1
		}
		sides[i] = endToEndValues(f.Runs)
	}
	code := 0
	fmt.Fprintln(stdout, "# workload metric parent_median change_median worsening bound spread verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := sides[0][wl.name][d.Name], sides[1][wl.name][d.Name]
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			verdict := compareRuns(a, b, d.Better, d.Bound)
			if verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(stdout, "%s %s %.6g %.6g %+.4f %.2f %.4f %s\n", wl.name, d.Name,
				median(a), median(b), worsening(median(a), median(b), d.Better), d.Bound, max(spread(a), spread(b)), verdict)
		}
	}
	return code
}

// commit is the VCS revision the binary was built from, when the build knows it.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem dir lives on: fsync and rename cost
// are its, not the program's.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("type-0x%x", uint32(st.Type))
}
