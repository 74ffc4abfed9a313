package obs

import (
	"math"
	"sort"
	"time"
)

// Analysis is the digest dsa-report trace renders: where wall-clock
// time went, which measures dominate, which tasks straggled, and how
// busy each worker was. All durations are on the writers' own
// monotonic timebases; cross-writer clocks are never compared, only
// per-writer windows and per-span durations.
//
// It is also a wire type: GET /v1/trace?format=digest serves it as JSON.
// A time.Duration marshals as integer nanoseconds, hence the _ns names;
// the embedded Records are journal lines and keep the journal's
// microsecond fields (start_us, dur_us).
type Analysis struct {
	Records int `json:"records"` // journalled spans

	Tasks    int           `json:"tasks"`        // "task" spans
	TaskBusy time.Duration `json:"task_busy_ns"` // summed task compute time across all writers
	Wall     time.Duration `json:"wall_ns"`      // widest per-writer window (first start → last end)

	PointsSimulated int64 `json:"points_simulated"` // summed from task spans
	PointsCached    int64 `json:"points_cached"`

	// Grid result uploads ("upload" spans): requests sent, the tasks they
	// carried (the span's tasks count; 1 in a journal that predates it)
	// and the time spent in them — UploadTime/UploadTasks is what
	// uploading cost per task.
	Uploads     int           `json:"uploads"`
	UploadTasks int64         `json:"upload_tasks"`
	UploadTime  time.Duration `json:"upload_ns"`

	Measures   []MeasureStat `json:"measures,omitempty"`   // per-measure task timing, one row per measure
	Workers    []WorkerStat  `json:"workers,omitempty"`    // per-writer utilization
	Stragglers []Straggler   `json:"stragglers,omitempty"` // outlier tasks, slowest first

	// CriticalPath is the longest root→leaf chain of nested spans on
	// any single writer — the sequence a faster component would have
	// to shorten to shorten the run.
	CriticalPath []Record `json:"critical_path,omitempty"`
}

// HistBuckets is the number of equal-width duration buckets in a
// MeasureStat histogram.
const HistBuckets = 8

// MeasureStat aggregates the task spans of one measure.
type MeasureStat struct {
	Measure string `json:"measure"`
	Tasks   int    `json:"tasks"`

	Min   time.Duration `json:"min_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	Max   time.Duration `json:"max_ns"`
	Total time.Duration `json:"total_ns"`

	// Hist counts tasks in HistBuckets equal-width duration buckets
	// spanning [Min, Max].
	Hist [HistBuckets]int `json:"hist"`

	Points    int64 `json:"points"`     // points attributed to this measure's tasks
	CacheHits int64 `json:"cache_hits"` // of which cache-served
	Simulated int64 `json:"simulated"`  // of which simulated
}

// WorkerStat is one writer's (shard's or worker's) utilization.
type WorkerStat struct {
	Writer string `json:"writer"`
	Tasks  int    `json:"tasks"`

	Busy   time.Duration `json:"busy_ns"`   // summed task compute time (elapsed_us where a task span has it, else its duration)
	Window time.Duration `json:"window_ns"` // first task start → last task end on this writer

	// Parallelism is Busy/Window: mean pool goroutines computing.
	Parallelism float64 `json:"parallelism"`

	Simulated int64 `json:"simulated"`
	CacheHits int64 `json:"cache_hits"`
}

// Straggler is a task span far outside its measure's typical
// duration.
type Straggler struct {
	Record  Record        `json:"record"`
	Measure string        `json:"measure"`
	Dur     time.Duration `json:"dur_ns"`
	Typical time.Duration `json:"typical_ns"` // the measure's median
	Factor  float64       `json:"factor"`     // Dur / Typical
}

// Analyze digests a merged record timeline (from LoadDir or LoadFile).
func Analyze(records []Record) *Analysis {
	a := &Analysis{Records: len(records)}
	if len(records) == 0 {
		return a
	}

	type mAgg struct {
		durs      []time.Duration
		total     time.Duration
		points    int64
		hits      int64
		simulated int64
		tasks     []Record
	}
	measures := map[string]*mAgg{}
	type wAgg struct {
		tasks     int
		busy      time.Duration
		lo, hi    time.Duration
		simulated int64
		hits      int64
		seen      bool
	}
	workers := map[string]*wAgg{}

	for _, r := range records {
		switch r.Name {
		case "task":
			// Tasks scored in one joint call overlap for its whole
			// length; elapsed_us is each one's share of that time, so
			// busy sums stay time spent. Latencies below stay r.Dur().
			busy := r.Dur()
			if us := r.AttrInt("elapsed_us"); us > 0 {
				busy = time.Duration(us) * time.Microsecond
			}
			a.Tasks++
			a.TaskBusy += busy
			sim := r.AttrInt("simulated")
			hit := r.AttrInt("cache_hits")
			a.PointsSimulated = addCount(a.PointsSimulated, sim)
			a.PointsCached = addCount(a.PointsCached, hit)

			m := r.AttrStr("measure")
			ma := measures[m]
			if ma == nil {
				ma = &mAgg{}
				measures[m] = ma
			}
			ma.durs = append(ma.durs, r.Dur())
			ma.total += r.Dur()
			ma.points = addCount(ma.points, r.AttrInt("points"))
			ma.hits = addCount(ma.hits, hit)
			ma.simulated = addCount(ma.simulated, sim)
			ma.tasks = append(ma.tasks, r)

			wa := workers[r.Writer]
			if wa == nil {
				wa = &wAgg{}
				workers[r.Writer] = wa
			}
			wa.tasks++
			wa.busy += busy
			if !wa.seen || r.Start() < wa.lo {
				wa.lo = r.Start()
			}
			if !wa.seen || r.End() > wa.hi {
				wa.hi = r.End()
			}
			wa.seen = true
			wa.simulated = addCount(wa.simulated, sim)
			wa.hits = addCount(wa.hits, hit)
		case "upload":
			a.Uploads++
			a.UploadTasks = addCount(a.UploadTasks, max(r.AttrInt("tasks"), 1))
			a.UploadTime += r.Dur()
		}
	}

	// Per-measure stats and straggler detection.
	names := make([]string, 0, len(measures))
	for m := range measures {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		ma := measures[m]
		sort.Slice(ma.durs, func(i, j int) bool { return ma.durs[i] < ma.durs[j] })
		n := len(ma.durs)
		st := MeasureStat{
			Measure:   m,
			Tasks:     n,
			Min:       ma.durs[0],
			Max:       ma.durs[n-1],
			P50:       quantile(ma.durs, 0.50),
			P90:       quantile(ma.durs, 0.90),
			Mean:      ma.total / time.Duration(n),
			Total:     ma.total,
			Points:    ma.points,
			CacheHits: ma.hits,
			Simulated: ma.simulated,
		}
		width := st.Max - st.Min
		for _, d := range ma.durs {
			b := 0
			if width > 0 {
				b = int(int64(d-st.Min) * HistBuckets / (int64(width) + 1))
			}
			// Durations near the int64 limit (a corrupt journal's) wrap
			// the product; they land in an end bucket, not out of range.
			st.Hist[min(max(b, 0), HistBuckets-1)]++
		}
		a.Measures = append(a.Measures, st)

		// A straggler runs past mean+3σ, or past 3× the median when
		// the sample is big enough for the median to mean something.
		if n >= 2 {
			mean := float64(st.Mean)
			var varsum float64
			for _, d := range ma.durs {
				varsum += float64((float64(d) - mean) * (float64(d) - mean))
			}
			sigma := math.Sqrt(varsum / float64(n))
			med := float64(st.P50)
			for _, r := range ma.tasks {
				d := float64(r.Dur())
				if d > mean+float64(3*sigma) || (n >= 8 && med > 0 && d > 3*med) {
					a.Stragglers = append(a.Stragglers, Straggler{
						Record:  r,
						Measure: m,
						Dur:     r.Dur(),
						Typical: st.P50,
						Factor:  d / math.Max(med, 1),
					})
				}
			}
		}
	}
	sort.Slice(a.Stragglers, func(i, j int) bool { return a.Stragglers[i].Dur > a.Stragglers[j].Dur })
	if len(a.Stragglers) > 10 {
		a.Stragglers = a.Stragglers[:10]
	}

	// Per-worker utilization, widest window = wall clock estimate.
	wnames := make([]string, 0, len(workers))
	for w := range workers {
		wnames = append(wnames, w)
	}
	sort.Strings(wnames)
	for _, w := range wnames {
		wa := workers[w]
		ws := WorkerStat{
			Writer:    w,
			Tasks:     wa.tasks,
			Busy:      wa.busy,
			Window:    wa.hi - wa.lo,
			Simulated: wa.simulated,
			CacheHits: wa.hits,
		}
		if ws.Window > 0 {
			ws.Parallelism = float64(ws.Busy) / float64(ws.Window)
		}
		if ws.Window > a.Wall {
			a.Wall = ws.Window
		}
		a.Workers = append(a.Workers, ws)
	}

	a.CriticalPath = criticalPath(records)
	return a
}

// addCount adds a count a span carries to a total. The counts come from
// whoever wrote the journal — a worker, over the grid — so a negative one
// counts as 0 and the total saturates instead of wrapping: no digest
// count is ever negative, and UploadTasks stays at least Uploads.
func addCount(total, n int64) int64 {
	if n = max(n, 0); total > math.MaxInt64-n {
		return math.MaxInt64
	}
	return total + n
}

// quantile reads q from sorted durations (nearest-rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// criticalPath finds, per writer, the root span chain with the
// largest cumulative child duration and returns the longest such
// chain across writers. Chains never cross writers: each journal has
// its own monotonic timebase and span ID space.
func criticalPath(records []Record) []Record {
	type key struct {
		w  string
		id uint64
	}
	children := map[key][]Record{}
	var roots []Record
	for _, r := range records {
		if r.Parent == 0 {
			roots = append(roots, r)
		} else {
			k := key{r.Writer, r.Parent}
			children[k] = append(children[k], r)
		}
	}
	// Longest cumulative chain below the span with key k. A journal
	// read from outside can repeat an ID and so make a span its own
	// ancestor: the walk is memoised per key, which keeps it linear, and a
	// key still on the path reads as an empty chain, which ends a cycle.
	type chain struct {
		dur  time.Duration
		path []Record
	}
	memo := map[key]chain{}
	var below func(k key) chain
	below = func(k key) chain {
		if c, ok := memo[k]; ok {
			return c
		}
		memo[k] = chain{}
		var best chain
		for _, c := range children[k] {
			tail := below(key{c.Writer, c.ID})
			if d := c.Dur() + tail.dur; d > best.dur {
				best = chain{d, append([]Record{c}, tail.path...)}
			}
		}
		memo[k] = best
		return best
	}
	var best []Record
	bestDur := time.Duration(-1)
	for _, r := range roots {
		tail := below(key{r.Writer, r.ID})
		if d := r.Dur() + tail.dur; d > bestDur {
			bestDur, best = d, append([]Record{r}, tail.path...)
		}
	}
	return best
}
