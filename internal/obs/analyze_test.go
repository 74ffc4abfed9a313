package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// mkTask builds a task record for analyzer tests.
func mkTask(writer string, id, parent uint64, measure string, start, dur time.Duration, hits, sim int64) Record {
	return Record{
		Writer: writer, ID: id, Parent: parent, Name: "task",
		StartUS: start.Microseconds(), DurUS: dur.Microseconds(),
		Attrs: map[string]any{
			"measure":    measure,
			"points":     float64(hits + sim),
			"cache_hits": float64(hits),
			"simulated":  float64(sim),
		},
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Records != 0 || a.Tasks != 0 || len(a.Measures) != 0 || len(a.CriticalPath) != 0 {
		t.Errorf("empty analysis not empty: %+v", a)
	}
}

func TestAnalyzeAggregates(t *testing.T) {
	var recs []Record
	// Two workers; w1 runs two 10ms perf tasks back to back, w2 runs one
	// 20ms robust task overlapping nothing.
	recs = append(recs,
		Record{Writer: "w1", ID: 1, Name: "sweep", StartUS: 0, DurUS: 30_000},
		mkTask("w1", 2, 1, "perf", 0, 10*time.Millisecond, 2, 8),
		mkTask("w1", 3, 1, "perf", 10*time.Millisecond, 10*time.Millisecond, 10, 0),
		mkTask("w2", 2, 0, "robust", 0, 20*time.Millisecond, 0, 10),
		// Per-key store events of a journal older than PR 22: records,
		// and nothing more.
		Record{Writer: "w1", ID: 4, Parent: 1, Name: "cache-lookup",
			Attrs: map[string]any{"outcome": "hit"}},
		Record{Writer: "w1", ID: 5, Parent: 1, Name: "cache-lookup",
			Attrs: map[string]any{"outcome": "miss"}},
	)
	a := Analyze(recs)

	if a.Tasks != 3 {
		t.Errorf("tasks = %d, want 3", a.Tasks)
	}
	if a.TaskBusy != 40*time.Millisecond {
		t.Errorf("task busy = %v, want 40ms", a.TaskBusy)
	}
	if a.PointsSimulated != 18 || a.PointsCached != 12 {
		t.Errorf("points sim/cached = %d/%d, want 18/12", a.PointsSimulated, a.PointsCached)
	}
	if a.Records != len(recs) {
		t.Errorf("records = %d, want %d", a.Records, len(recs))
	}

	if len(a.Measures) != 2 {
		t.Fatalf("measures = %d, want 2", len(a.Measures))
	}
	perf := a.Measures[0] // sorted by name: perf < robust
	if perf.Measure != "perf" || perf.Tasks != 2 {
		t.Fatalf("measure[0] = %+v", perf)
	}
	if perf.Min != 10*time.Millisecond || perf.Max != 10*time.Millisecond ||
		perf.Mean != 10*time.Millisecond {
		t.Errorf("perf min/mean/max = %v/%v/%v", perf.Min, perf.Mean, perf.Max)
	}
	if perf.CacheHits != 12 || perf.Simulated != 8 || perf.Points != 20 {
		t.Errorf("perf attribution = hits %d sim %d pts %d", perf.CacheHits, perf.Simulated, perf.Points)
	}
	nHist := 0
	for _, c := range perf.Hist {
		nHist += c
	}
	if nHist != 2 {
		t.Errorf("perf histogram holds %d tasks, want 2", nHist)
	}

	if len(a.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(a.Workers))
	}
	w1 := a.Workers[0]
	if w1.Writer != "w1" || w1.Tasks != 2 || w1.Busy != 20*time.Millisecond ||
		w1.Window != 20*time.Millisecond {
		t.Errorf("w1 = %+v", w1)
	}
	if w1.Parallelism < 0.99 || w1.Parallelism > 1.01 {
		t.Errorf("w1 parallelism = %v, want ~1", w1.Parallelism)
	}
	if a.Wall != 20*time.Millisecond {
		t.Errorf("wall = %v, want 20ms", a.Wall)
	}

	// Critical path: the w1 sweep (30ms) and its heaviest child chain.
	if len(a.CriticalPath) != 2 {
		t.Fatalf("critical path len = %d, want 2: %+v", len(a.CriticalPath), a.CriticalPath)
	}
	if a.CriticalPath[0].Name != "sweep" || a.CriticalPath[1].Name != "task" {
		t.Errorf("critical path = %q → %q", a.CriticalPath[0].Name, a.CriticalPath[1].Name)
	}
}

// TestAnalyzeFusedTasks: task spans of one joint call all cover its
// whole length; busy time comes from their elapsed_us shares, latency
// from the spans themselves.
func TestAnalyzeFusedTasks(t *testing.T) {
	var recs []Record
	for i, m := range []string{"a", "b", "c", "d"} {
		r := mkTask("w1", uint64(i+1), 0, m, 0, 40*time.Millisecond, 0, 8)
		r.Attrs["elapsed_us"] = float64(10_000)
		recs = append(recs, r)
	}
	a := Analyze(recs)
	if a.TaskBusy != 40*time.Millisecond {
		t.Errorf("task busy = %v, want 40ms", a.TaskBusy)
	}
	if w := a.Workers[0]; w.Busy != 40*time.Millisecond || w.Parallelism < 0.99 || w.Parallelism > 1.01 {
		t.Errorf("w1 = %+v, want busy 40ms at parallelism ~1", w)
	}
	if m := a.Measures[0]; m.Mean != 40*time.Millisecond {
		t.Errorf("measure %s mean latency = %v, want 40ms", m.Measure, m.Mean)
	}
}

// TestAnalyzeUploads: an upload span is one request; its tasks count
// says how many results it carried, and a span without one (an older
// journal) carried one.
func TestAnalyzeUploads(t *testing.T) {
	a := Analyze([]Record{
		{Writer: "w1", ID: 1, Name: "upload", DurUS: 800, Attrs: map[string]any{"tasks": float64(4)}},
		{Writer: "w1", ID: 2, Name: "upload", DurUS: 400, Attrs: map[string]any{"task": "perf:0-8"}},
	})
	if a.Uploads != 2 || a.UploadTasks != 5 || a.UploadTime != 1200*time.Microsecond {
		t.Errorf("uploads = %d carrying %d tasks in %v, want 2 carrying 5 in 1.2ms", a.Uploads, a.UploadTasks, a.UploadTime)
	}
}

func TestAnalyzeStragglers(t *testing.T) {
	var recs []Record
	id := uint64(1)
	// 15 ordinary 10ms tasks and one 200ms outlier.
	for i := 0; i < 15; i++ {
		recs = append(recs, mkTask("w", id, 0, "perf",
			time.Duration(i)*10*time.Millisecond, 10*time.Millisecond, 0, 1))
		id++
	}
	recs = append(recs, mkTask("w", id, 0, "perf",
		150*time.Millisecond, 200*time.Millisecond, 0, 1))

	a := Analyze(recs)
	if len(a.Stragglers) != 1 {
		t.Fatalf("stragglers = %d, want 1", len(a.Stragglers))
	}
	s := a.Stragglers[0]
	if s.Dur != 200*time.Millisecond || s.Measure != "perf" {
		t.Errorf("straggler = %+v", s)
	}
	if s.Factor < 10 {
		t.Errorf("straggler factor = %v, want >= 10", s.Factor)
	}
	if s.Typical != 10*time.Millisecond {
		t.Errorf("straggler typical = %v, want 10ms", s.Typical)
	}
}

func TestAnalyzeUniformNoStragglers(t *testing.T) {
	var recs []Record
	for i := 0; i < 20; i++ {
		recs = append(recs, mkTask("w", uint64(i+1), 0, "perf",
			time.Duration(i)*10*time.Millisecond, 10*time.Millisecond, 0, 1))
	}
	if a := Analyze(recs); len(a.Stragglers) != 0 {
		t.Errorf("uniform tasks produced %d stragglers", len(a.Stragglers))
	}
}

func TestCriticalPathPerWriter(t *testing.T) {
	// Same span IDs on two writers must not cross-link.
	recs := []Record{
		{Writer: "a", ID: 1, Name: "sweep", DurUS: 1000},
		{Writer: "a", ID: 2, Parent: 1, Name: "task", DurUS: 900},
		{Writer: "b", ID: 1, Name: "sweep", DurUS: 5000},
		{Writer: "b", ID: 2, Parent: 1, Name: "task", DurUS: 100},
	}
	path := criticalPath(recs)
	if len(path) != 2 || path[0].Writer != "b" {
		t.Fatalf("critical path = %+v, want b's sweep chain", path)
	}
}

// TestAnalyzeDistrustsCounts: the counts a digest sums come from whoever
// wrote the spans, over the grid a worker. A negative count adds nothing
// and a huge one saturates the total instead of wrapping it, so four
// uploads never read as zero tasks carried.
func TestAnalyzeDistrustsCounts(t *testing.T) {
	var recs []Record
	for i := uint64(1); i <= 4; i++ {
		recs = append(recs, Record{Writer: "w", ID: i, Name: "upload", Attrs: map[string]any{"tasks": float64(1 << 62)}})
	}
	recs = append(recs, Record{Writer: "w", ID: 5, Name: "task", Attrs: map[string]any{
		"measure": "m", "points": float64(-3), "simulated": float64(-5), "cache_hits": float64(-7)}})
	a := Analyze(recs)
	if a.Uploads != 4 || a.UploadTasks != math.MaxInt64 {
		t.Errorf("%d uploads carried %d tasks, want 4 carrying the saturated %d", a.Uploads, a.UploadTasks, int64(math.MaxInt64))
	}
	m, w := a.Measures[0], a.Workers[0]
	for name, n := range map[string]int64{
		"points simulated": a.PointsSimulated, "points cached": a.PointsCached,
		"measure points": m.Points, "measure simulated": m.Simulated, "measure cache hits": m.CacheHits,
		"worker simulated": w.Simulated, "worker cache hits": w.CacheHits,
	} {
		if n != 0 {
			t.Errorf("%s = %d, want 0", name, n)
		}
	}
}

// FuzzAnalyze feeds arbitrary bytes to the journal reader and the
// analysis, the path GET /v1/trace?format=digest serves from what workers
// ship: no panic, no negative count, and at least one task per upload.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte(`{"w":"w1","id":1,"name":"sweep","start_us":0,"dur_us":30000}
{"w":"w1","id":2,"par":1,"name":"task","start_us":0,"dur_us":10000,"attrs":{"measure":"perf","points":10,"cache_hits":2,"simulated":8,"elapsed_us":9000}}
{"w":"w1","id":3,"par":2,"name":"simulate","start_us":5,"dur_us":9000}
{"w":"w2","id":1,"name":"upload","start_us":7,"dur_us":800,"attrs":{"tasks":4}}
`))
	f.Add([]byte(`{"w":"w","id":1,"name":"upload","attrs":{"tasks":4611686018427387904}}
{"w":"w","id":2,"name":"upload","attrs":{"tasks":4611686018427387904}}
{"w":"w","id":3,"name":"upload","attrs":{"tasks":4611686018427387904}}
{"w":"w","id":4,"name":"upload","attrs":{"tasks":4611686018427387904}}
{"w":"w","id":5,"name":"task","attrs":{"measure":"m","simulated":-5,"cache_hits":-7}}
`))
	f.Add([]byte(`{"w":"a","id":1,"name":"sweep","dur_us":10}
{"w":"a","id":2,"par":1,"name":"task","dur_us":5}
{"w":"a","id":1,"par":2,"name":"task","dur_us":5}
`))
	f.Add([]byte(`{"w":"a","id":1,"name":"task","dur_us":0,"attrs":{"measure":"m"}}
{"w":"a","id":2,"name":"task","dur_us":3458764513820541,"attrs":{"measure":"m"}}
`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := LoadReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		a := Analyze(recs)
		counts := map[string]int64{
			"records": int64(a.Records), "tasks": int64(a.Tasks), "uploads": int64(a.Uploads), "upload tasks": a.UploadTasks,
			"points simulated": a.PointsSimulated, "points cached": a.PointsCached,
		}
		for _, m := range a.Measures {
			counts[m.Measure+" tasks"], counts[m.Measure+" points"] = int64(m.Tasks), m.Points
			counts[m.Measure+" simulated"], counts[m.Measure+" cache hits"] = m.Simulated, m.CacheHits
		}
		for _, w := range a.Workers {
			counts[w.Writer+" tasks"], counts[w.Writer+" simulated"], counts[w.Writer+" cache hits"] = int64(w.Tasks), w.Simulated, w.CacheHits
		}
		for name, n := range counts {
			if n < 0 {
				t.Fatalf("%s = %d", name, n)
			}
		}
		if a.UploadTasks < int64(a.Uploads) {
			t.Fatalf("%d uploads carried %d tasks", a.Uploads, a.UploadTasks)
		}
	})
}
