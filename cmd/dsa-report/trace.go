package main

// The trace report: merge every trace-*.jsonl journal in a directory
// (or the journals a coordinator collected from trace-shipping
// workers) onto one timeline and render where the sweep's time went —
// critical path, per-measure latency (with an inline histogram),
// stragglers, cache-hit attribution and per-worker utilization.

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/report"
)

// runTrace loads every journal under src — a local directory or a
// coordinator URL — and renders the analysis. Both paths feed the
// same renderTrace over the same canonical merge order, so the report
// from a coordinator's collected journals is byte-identical to one
// run over the workers' own -trace-dir. With a non-empty mergedPath
// the canonically merged journal is also written there as JSONL.
func runTrace(src, jobID, mergedPath string) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		runTraceRemote(src, jobID, mergedPath)
		return
	}
	recs, err := obs.LoadDir(src)
	if err != nil {
		log.Fatal(err)
	}
	files, _ := obs.JournalFiles(src)
	if mergedPath != "" {
		writeMerged(mergedPath, func(w io.Writer) error {
			_, err := obs.Merge(w, files...)
			return err
		})
	}
	a := obs.Analyze(recs)
	if err := renderTrace(os.Stdout, a, len(files)); err != nil {
		log.Fatal(err)
	}
}

// runTraceRemote renders the analysis a coordinator serves of the
// journals it collected (GET /v1/trace?format=digest) — the same
// obs.Analysis the directory mode computes, so the same report — and
// fetches the merged journal itself only to write it out.
func runTraceRemote(baseURL, jobID, mergedPath string) {
	ctx := context.Background()
	digest, err := grid.FetchTraceDigest(ctx, nil, baseURL, jobID)
	if err != nil {
		log.Fatal(err)
	}
	if digest.Analysis.Records == 0 {
		log.Fatalf("coordinator %s has collected no trace spans (start workers with -ship-traces)", baseURL)
	}
	if mergedPath != "" {
		raw, err := grid.FetchTrace(ctx, nil, baseURL, jobID)
		if err != nil {
			log.Fatal(err)
		}
		defer raw.Close()
		writeMerged(mergedPath, func(w io.Writer) error {
			_, err := io.Copy(w, raw)
			return err
		})
	}
	if err := renderTrace(os.Stdout, &digest.Analysis, digest.Journals); err != nil {
		log.Fatal(err)
	}
}

// writeMerged writes the merged journal to path via fill, failing
// loudly — a truncated merged file would silently skew any downstream
// comparison.
func writeMerged(path string, fill func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := fill(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func renderTrace(w io.Writer, a *obs.Analysis, journals int) error {
	fmt.Fprintf(w, "Trace: %d records from %d journals\n\n", a.Records, journals)

	// Summary.
	tbl := report.NewTable("metric", "value")
	tbl.Add("tasks", a.Tasks)
	tbl.Add("wall clock (widest writer window)", round(a.Wall))
	tbl.Add("task busy time (all writers)", round(a.TaskBusy))
	tbl.Add("points simulated", a.PointsSimulated)
	tbl.Add("points cache-served", a.PointsCached)
	if total := a.PointsSimulated + a.PointsCached; total > 0 {
		tbl.Add("cache-hit rate", fmt.Sprintf("%.1f%%", 100*float64(a.PointsCached)/float64(total)))
	}
	if a.Uploads > 0 {
		tbl.Add("result uploads (requests)", a.Uploads)
		tbl.Add("  tasks carried", a.UploadTasks)
		if a.UploadTasks > 0 { // a digest from a coordinator older than the count has none
			tbl.Add("  upload time per task", round(a.UploadTime/time.Duration(a.UploadTasks)))
		}
	}
	if err := tbl.Render(w); err != nil {
		return err
	}

	if len(a.CriticalPath) > 0 {
		fmt.Fprintf(w, "\nCritical path (writer %s):\n", a.CriticalPath[0].Writer)
		for i, r := range a.CriticalPath {
			label := r.Name
			if m := r.AttrStr("measure"); m != "" {
				label += " " + m
			}
			if t := r.AttrStr("task"); t != "" {
				label += " " + t
			}
			if n := r.AttrInt("tasks"); n > 0 {
				label += fmt.Sprintf(" (%d tasks)", n)
			}
			fmt.Fprintf(w, "  %s%s  %s\n", strings.Repeat("  ", i), label, round(r.Dur()))
		}
	}

	if len(a.Measures) > 0 {
		fmt.Fprintf(w, "\nPer-measure task latency:\n")
		mt := report.NewTable("measure", "tasks", "min", "p50", "p90", "max", "mean", "total", "points", "cached", "histogram")
		for _, m := range a.Measures {
			mt.Add(m.Measure, m.Tasks, round(m.Min), round(m.P50), round(m.P90),
				round(m.Max), round(m.Mean), round(m.Total), m.Points, m.CacheHits, sparkline(m.Hist[:]))
		}
		if err := mt.Render(w); err != nil {
			return err
		}
	}

	if len(a.Stragglers) > 0 {
		fmt.Fprintf(w, "\nStragglers (tasks far beyond their measure's typical duration):\n")
		st := report.NewTable("writer", "task", "measure", "dur", "typical", "factor")
		for _, s := range a.Stragglers {
			st.Add(s.Record.Writer, s.Record.AttrStr("task"), s.Measure,
				round(s.Dur), round(s.Typical), fmt.Sprintf("%.1fx", s.Factor))
		}
		if err := st.Render(w); err != nil {
			return err
		}
	}

	if len(a.Workers) > 0 {
		fmt.Fprintf(w, "\nPer-worker utilization:\n")
		wt := report.NewTable("worker", "tasks", "busy", "window", "parallelism", "simulated", "cached")
		for _, ws := range a.Workers {
			wt.Add(ws.Writer, ws.Tasks, round(ws.Busy), round(ws.Window),
				fmt.Sprintf("%.2f", ws.Parallelism), ws.Simulated, ws.CacheHits)
		}
		if err := wt.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// round trims durations to a readable precision: tasks run from
// microseconds (cache-served) to minutes, so scale the rounding to the
// magnitude instead of fixing a unit.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d
	}
}

// sparkline renders a histogram as one bar character per bucket.
func sparkline(buckets []int) string {
	bars := []rune("▁▂▃▄▅▆▇█")
	peak := 0
	for _, b := range buckets {
		peak = max(peak, b)
	}
	if peak == 0 {
		return ""
	}
	var sb strings.Builder
	for _, b := range buckets {
		if b == 0 {
			sb.WriteRune('·')
			continue
		}
		sb.WriteRune(bars[(b*(len(bars)-1))/peak])
	}
	return sb.String()
}
