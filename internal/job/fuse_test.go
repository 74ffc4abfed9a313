package job

// Chunk-fused execution: the task stays the unit of record (one sink
// call, one OnTask, one cache entry per point, its own values), while a
// domain with the joint capability is asked once per chunk for whatever
// its tasks still miss. Observed through a synthetic domain that logs
// how it was called, so "one joint call per chunk" is an exact count.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// scoreCall is one call into the synthetic domain.
type scoreCall struct {
	measures []string
	ids      []int // point IDs, in call order
}

// plainDomain is a four-measure domain over a 20-point line whose score
// is a pure function of (measure, point ID). It has no joint capability.
type plainDomain struct {
	space *core.Space
	short bool // return one value too few — a miscounting domain

	mu    sync.Mutex
	calls []scoreCall
}

// jointDomain is plainDomain with the joint capability.
type jointDomain struct{ *plainDomain }

var fuseMeasures = []string{"a", "b", "c", "d"}

func newPlainDomain(t *testing.T) *plainDomain {
	t.Helper()
	vals := make([]string, 20)
	for i := range vals {
		vals[i] = fmt.Sprintf("p%02d", i)
	}
	space, err := core.NewSpace("fuse", []core.Dimension{{Name: "x", Values: vals}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &plainDomain{space: space}
}

func (d *plainDomain) Name() string                            { return "fuse-test" }
func (d *plainDomain) Space() *core.Space                      { return d.space }
func (d *plainDomain) PointID(p core.Point) (int, error)       { return p[0], nil }
func (d *plainDomain) PointByID(id int) (core.Point, error)    { return core.Point{id}, nil }
func (d *plainDomain) Label(p core.Point) string               { return p.Key() }
func (d *plainDomain) Measures() []string                      { return fuseMeasures }
func (d *plainDomain) SampleOpponents(dsa.Config) []core.Point { return nil }
func (d *plainDomain) DefaultConfig(string) (dsa.Config, error) {
	return dsa.Config{Peers: 2, Rounds: 1, PerfRuns: 1, EncounterRuns: 1, Seed: 1}, nil
}

func (d *plainDomain) Assemble(pts []core.Point, raw map[string][]float64) (*dsa.Scores, error) {
	return &dsa.Scores{Domain: d.Name(), Points: pts, Raw: raw, Values: raw}, nil
}

// fuseScore is the synthetic score of (measure, point ID).
func fuseScore(measure string, id int) float64 {
	return float64(1000*(1+slices.Index(fuseMeasures, measure)) + id)
}

func (d *plainDomain) score(measures []string, pts []core.Point) [][]float64 {
	call := scoreCall{measures: slices.Clone(measures)}
	out := make([][]float64, len(measures))
	for _, p := range pts {
		call.ids = append(call.ids, p[0])
		for k, m := range measures {
			out[k] = append(out[k], fuseScore(m, p[0]))
		}
	}
	if d.short {
		last := len(out) - 1
		out[last] = out[last][:len(pts)-1]
	}
	d.mu.Lock()
	d.calls = append(d.calls, call)
	d.mu.Unlock()
	return out
}

func (d *plainDomain) ScoreSlice(measure string, pts, _ []core.Point, _ dsa.Config) ([]float64, error) {
	return d.score([]string{measure}, pts)[0], nil
}

func (d jointDomain) ScoreSlices(measures []string, pts, _ []core.Point, _ dsa.Config) ([][]float64, error) {
	return d.score(measures, pts), nil
}

// fuseSpec sweeps the whole line in chunks of 8: chunks [0,8) [8,16)
// [16,20), four tasks each.
func fuseSpec(d dsa.Domain) Spec {
	cfg, _ := d.DefaultConfig("quick")
	return Spec{Domain: d, Points: d.Space().Enumerate(), Cfg: cfg, Chunk: 8}
}

// delivered is what the sink and OnTask saw, per task ID.
type delivered struct {
	mu    sync.Mutex
	vals  map[string][]float64
	stats map[string]TaskStats
}

// execFuse runs tasks through ExecTasks and checks that every task was
// delivered exactly once, to the sink and to OnTask, with its own values.
func execFuse(t *testing.T, spec Spec, tasks []Task, sc dsa.ScoreCache) *delivered {
	t.Helper()
	got := &delivered{vals: map[string][]float64{}, stats: map[string]TaskStats{}}
	err := ExecTasks(context.Background(), spec, tasks, ExecOptions{
		Workers: 3, Cache: sc,
		OnTask: func(ts TaskStats) {
			got.mu.Lock()
			defer got.mu.Unlock()
			if _, dup := got.stats[ts.Task.ID()]; dup {
				t.Errorf("OnTask twice for %s", ts.Task.ID())
			}
			got.stats[ts.Task.ID()] = ts
		},
	}, func(task Task, vals []float64, elapsed time.Duration) error {
		got.mu.Lock()
		defer got.mu.Unlock()
		if _, dup := got.vals[task.ID()]; dup {
			t.Errorf("sink twice for %s", task.ID())
		}
		got.vals[task.ID()] = vals
		if st := got.stats[task.ID()]; st.Elapsed != elapsed {
			t.Errorf("%s: sink elapsed %v, OnTask elapsed %v", task.ID(), elapsed, st.Elapsed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		var want []float64
		for _, p := range spec.Points[task.Lo:task.Hi] {
			want = append(want, fuseScore(task.Measure, p[0]))
		}
		if !reflect.DeepEqual(got.vals[task.ID()], want) {
			t.Errorf("%s delivered %v, want %v", task.ID(), got.vals[task.ID()], want)
		}
		if st := got.stats[task.ID()]; st.CacheHits+st.Simulated != task.Hi-task.Lo {
			t.Errorf("%s: %d hits + %d simulated over %d points", task.ID(), st.CacheHits, st.Simulated, task.Hi-task.Lo)
		}
	}
	return got
}

// sortedCalls returns the domain's calls ordered by first point ID, then
// first measure.
func (d *plainDomain) sortedCalls() []scoreCall {
	d.mu.Lock()
	defer d.mu.Unlock()
	calls := slices.Clone(d.calls)
	slices.SortFunc(calls, func(a, b scoreCall) int {
		return cmp.Or(a.ids[0]-b.ids[0], strings.Compare(a.measures[0], b.measures[0]))
	})
	return calls
}

func idRange(lo, hi int) []int {
	var ids []int
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	return ids
}

func TestTasksEnumerateChunkMajor(t *testing.T) {
	tasks := fuseSpec(newPlainDomain(t)).Tasks()
	var got []string
	for _, task := range tasks {
		got = append(got, task.ID())
	}
	want := []string{
		"a-00000-00008", "b-00000-00008", "c-00000-00008", "d-00000-00008",
		"a-00008-00016", "b-00008-00016", "c-00008-00016", "d-00008-00016",
		"a-00016-00020", "b-00016-00020", "c-00016-00020", "d-00016-00020",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tasks() = %v, want %v", got, want)
	}
}

func TestExecTasksOneJointCallPerChunk(t *testing.T) {
	d := jointDomain{newPlainDomain(t)}
	spec := fuseSpec(d)
	got := execFuse(t, spec, spec.Tasks(), nil)
	want := []scoreCall{
		{fuseMeasures, idRange(0, 8)},
		{fuseMeasures, idRange(8, 16)},
		{fuseMeasures, idRange(16, 20)},
	}
	if calls := d.sortedCalls(); !reflect.DeepEqual(calls, want) {
		t.Fatalf("domain calls = %v, want %v", calls, want)
	}
	// A group's tasks split its time evenly.
	for lo := 0; lo < 20; lo += 8 {
		hi := min(lo+8, 20)
		first := got.stats[Task{"a", lo, hi}.ID()].Elapsed
		for _, m := range fuseMeasures {
			if e := got.stats[Task{m, lo, hi}.ID()].Elapsed; e != first {
				t.Errorf("chunk [%d,%d): %s elapsed %v, a elapsed %v", lo, hi, m, e, first)
			}
		}
	}
}

func TestExecTasksWithoutCapabilityRunsOfOne(t *testing.T) {
	d := newPlainDomain(t)
	spec := fuseSpec(d)
	execFuse(t, spec, spec.Tasks(), nil)
	calls := d.sortedCalls()
	if len(calls) != len(spec.Tasks()) {
		t.Fatalf("%d ScoreSlice calls for %d tasks", len(calls), len(spec.Tasks()))
	}
	for _, c := range calls {
		if len(c.measures) != 1 {
			t.Fatalf("call over measures %v on a domain without the joint capability", c.measures)
		}
	}
}

// TestExecTasksFusesOnlyAdjacentEqualRanges: a batch that is not
// chunk-major (a split lease, an audit re-lease) loses the sharing of
// the groups it splits and nothing else.
func TestExecTasksFusesOnlyAdjacentEqualRanges(t *testing.T) {
	d := jointDomain{newPlainDomain(t)}
	spec := fuseSpec(d)
	tasks := []Task{{"a", 0, 8}, {"b", 0, 8}, {"c", 8, 16}, {"d", 0, 8}, {"a", 16, 20}, {"b", 16, 20}}
	execFuse(t, spec, tasks, nil)
	want := []scoreCall{
		{[]string{"a", "b"}, idRange(0, 8)},
		{[]string{"d"}, idRange(0, 8)},
		{[]string{"c"}, idRange(8, 16)},
		{[]string{"a", "b"}, idRange(16, 20)},
	}
	if calls := d.sortedCalls(); !reflect.DeepEqual(calls, want) {
		t.Fatalf("domain calls = %v, want %v", calls, want)
	}
}

// TestExecTasksOnUnitFollowsTheUnitsSinks: OnUnit fires once per
// execution unit, after the last of its sinks — on one pool goroutine
// the log reads sink×4, unit, sink×4, unit, ... for a joint domain and
// sink, unit, sink, unit, ... without the capability.
func TestExecTasksOnUnitFollowsTheUnitsSinks(t *testing.T) {
	for name, d := range map[string]dsa.Domain{"joint": jointDomain{newPlainDomain(t)}, "plain": newPlainDomain(t)} {
		spec := fuseSpec(d)
		perUnit := 1
		if name == "joint" {
			perUnit = len(fuseMeasures)
		}
		var log []string // one pool goroutine: no lock needed
		err := ExecTasks(context.Background(), spec, spec.Tasks(), ExecOptions{
			Workers: 1,
			OnUnit:  func() { log = append(log, "unit") },
		}, func(Task, []float64, time.Duration) error {
			log = append(log, "sink")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i := range spec.Tasks() {
			if want = append(want, "sink"); (i+1)%perUnit == 0 {
				want = append(want, "unit")
			}
		}
		if !slices.Equal(log, want) {
			t.Errorf("%s domain: sinks and unit ends arrived as %v, want %v", name, log, want)
		}
	}
}

// TestFusedTaskSpansAreRealIntervals: the task spans of a unit are
// not carved up to add to its time — each contains its own children
// (the unit's one simulate span, every cache lookup), and the share
// that does add up rides along as elapsed_us.
func TestFusedTaskSpansAreRealIntervals(t *testing.T) {
	spec := fuseSpec(jointDomain{newPlainDomain(t)})
	sc, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	dir := t.TempDir()
	rec, err := obs.OpenDir(dir, "fuse")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	elapsed := map[string]time.Duration{}
	err = ExecTasks(context.Background(), spec, spec.Tasks(), ExecOptions{Workers: 2, Cache: sc, Trace: rec},
		func(task Task, _ []float64, d time.Duration) error {
			mu.Lock()
			defer mu.Unlock()
			elapsed[task.ID()] = d
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tasks := map[uint64]obs.Record{}
	for _, r := range recs {
		if r.Name == "task" {
			tasks[r.ID] = r
			if got, want := r.AttrInt("elapsed_us"), elapsed[r.AttrStr("task")].Microseconds(); got != want {
				t.Errorf("%s: elapsed_us %d, sink saw %d", r.AttrStr("task"), got, want)
			}
		}
	}
	if len(tasks) != len(spec.Tasks()) {
		t.Fatalf("%d task spans, want %d", len(tasks), len(spec.Tasks()))
	}
	const slack = 2 * time.Microsecond // start and duration are each cut to whole µs
	children := 0
	for _, r := range recs {
		parent, ok := tasks[r.Parent]
		if !ok {
			continue
		}
		children++
		if r.Start() < parent.Start() || r.End() > parent.End()+slack {
			t.Errorf("%s [%v,%v) sticks out of task %s [%v,%v)", r.Name, r.Start(), r.End(),
				parent.AttrStr("task"), parent.Start(), parent.End())
		}
	}
	if want := len(tasks) + 3; children != want { // a lookup per task, a simulate per chunk
		t.Errorf("%d child spans under tasks, want %d", children, want)
	}
}

// putSpy records every Put on its way to the store.
type putSpy struct {
	dsa.ScoreCache
	mu   sync.Mutex
	puts map[dsa.CacheKey]int
}

func (s *putSpy) Put(k dsa.CacheKey, v float64) {
	s.mu.Lock()
	s.puts[k]++
	s.mu.Unlock()
	s.ScoreCache.Put(k, v)
}

func TestExecTasksFusedCache(t *testing.T) {
	d := jointDomain{newPlainDomain(t)}
	spec := fuseSpec(d)
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	keyer, err := dsa.NewScoreKeyer(d, nil, spec.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm: every point of measure b, and points 0-2 of measure a.
	warm := map[dsa.CacheKey]bool{}
	put := func(m string, id int) {
		store.Put(keyer.Key(m, id), fuseScore(m, id))
		warm[keyer.Key(m, id)] = true
	}
	for id := 0; id < 20; id++ {
		put("b", id)
	}
	for id := 0; id < 3; id++ {
		put("a", id)
	}

	spy := &putSpy{ScoreCache: store, puts: map[dsa.CacheKey]int{}}
	got := execFuse(t, spec, spec.Tasks(), spy)
	// b never reaches the domain; chunk 0 is scored over the union of
	// what a (3-7), c and d (0-7) miss.
	rest := []string{"a", "c", "d"}
	want := []scoreCall{{rest, idRange(0, 8)}, {rest, idRange(8, 16)}, {rest, idRange(16, 20)}}
	if calls := d.sortedCalls(); !reflect.DeepEqual(calls, want) {
		t.Fatalf("domain calls = %v, want %v", calls, want)
	}
	if st := got.stats[Task{"a", 0, 8}.ID()]; st.CacheHits != 3 || st.Simulated != 5 {
		t.Errorf("a over chunk 0: %d hits, %d simulated, want 3 and 5", st.CacheHits, st.Simulated)
	}
	if st := got.stats[Task{"b", 8, 16}.ID()]; st.CacheHits != 8 || st.Simulated != 0 {
		t.Errorf("b over chunk 1: %d hits, %d simulated, want 8 and 0", st.CacheHits, st.Simulated)
	}
	// Exactly the misses were recorded, once each.
	for _, m := range fuseMeasures {
		for id := 0; id < 20; id++ {
			k := keyer.Key(m, id)
			if want := map[bool]int{true: 0, false: 1}[warm[k]]; spy.puts[k] != want {
				t.Errorf("%s point %d: %d Puts, want %d", m, id, spy.puts[k], want)
			}
		}
	}

	// Fully warm: nothing reaches the domain, nothing is recorded.
	d.calls, spy.puts = nil, map[dsa.CacheKey]int{}
	execFuse(t, spec, spec.Tasks(), spy)
	if len(d.calls) != 0 || len(spy.puts) != 0 {
		t.Fatalf("warm run: %d domain calls, %d Puts, want none", len(d.calls), len(spy.puts))
	}
}

// TestExecTasksCatchesMiscountAtTheTask: a domain that returns the wrong
// number of values fails the task that asked, by ID — with or without a
// cache, fused or not.
func TestExecTasksCatchesMiscountAtTheTask(t *testing.T) {
	plain := newPlainDomain(t)
	plain.short = true
	for _, d := range []dsa.Domain{plain, jointDomain{plain}} {
		for _, cached := range []bool{false, true} {
			spec := fuseSpec(d)
			tasks := spec.Tasks()[:4] // chunk 0
			opts := ExecOptions{Workers: 1}
			if cached {
				store, err := cache.Open(cache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				opts.Cache = store
			}
			err := ExecTasks(context.Background(), spec, tasks, opts,
				func(Task, []float64, time.Duration) error { return nil })
			// The plain domain shorts every call, so its first task
			// fails; the joint one shorts the last vector of the group.
			wantID := tasks[0].ID()
			if _, ok := d.(dsa.JointScorer); ok {
				wantID = tasks[3].ID()
			}
			if err == nil || !strings.Contains(err.Error(), wantID) || !strings.Contains(err.Error(), "7 values for 8 points") {
				t.Errorf("%T cached=%v: err = %v, want the miscount reported against task %s", d, cached, err, wantID)
			}
		}
	}
}

// TestShardsOwnWholeChunks: with as many shards as measures, index
// round-robin over the chunk-major order would hand each shard one
// measure of every chunk; chunk ownership keeps every group whole.
func TestShardsOwnWholeChunks(t *testing.T) {
	d := jointDomain{newPlainDomain(t)}
	spec := fuseSpec(d)
	dir := t.TempDir()
	var scores *dsa.Scores
	for shard := 0; shard < 4; shard++ {
		s, err := Run(context.Background(), d, spec.Points, spec.Cfg, Options{Dir: dir, Chunk: spec.Chunk, Shards: 4, ShardIndex: shard})
		if err != nil && !errors.Is(err, ErrIncomplete) {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if err == nil {
			scores = s
		}
	}
	if scores == nil {
		t.Fatal("no shard assembled the sweep")
	}
	want := []scoreCall{{fuseMeasures, idRange(0, 8)}, {fuseMeasures, idRange(8, 16)}, {fuseMeasures, idRange(16, 20)}}
	if calls := d.sortedCalls(); !reflect.DeepEqual(calls, want) {
		t.Fatalf("domain calls across four shards = %v, want %v", calls, want)
	}
	for _, m := range fuseMeasures {
		for i, p := range spec.Points {
			if scores.Raw[m][i] != fuseScore(m, p[0]) {
				t.Fatalf("merged %s[%d] = %v", m, i, scores.Raw[m][i])
			}
		}
	}
}

// widthDomain is plainDomain scoring a call's points on cfg.Workers
// goroutines, where the first two points of measure "a" each wait for the
// other: they score only if both are in flight at once.
type widthDomain struct {
	*plainDomain
	mu      sync.Mutex
	arrived int
	both    chan struct{}
}

func (d *widthDomain) ScoreSlice(measure string, pts, _ []core.Point, cfg dsa.Config) ([]float64, error) {
	out := make([]float64, len(pts))
	alone := make([]bool, len(pts))
	dsa.ParallelFor(len(pts), cfg.Parallelism(), func(i int) {
		if measure == "a" && i < 2 {
			d.mu.Lock()
			if d.arrived++; d.arrived == 2 {
				close(d.both)
			}
			d.mu.Unlock()
			select {
			case <-d.both:
			case <-time.After(2 * time.Second):
				alone[i] = true
			}
		}
		out[i] = fuseScore(measure, pts[i][0])
	})
	if slices.Contains(alone, true) {
		return nil, errors.New("a point of measure a waited alone: its unit scored on one goroutine")
	}
	return out, nil
}

// TestExecTasksUnitsUseTheFullWidth: in a batch the pool runs at once,
// each unit's inner scoring gets the pool's whole width, not a share
// fixed when the pool starts. Of two units on two workers, the one
// needing two points in flight gets them.
func TestExecTasksUnitsUseTheFullWidth(t *testing.T) {
	d := &widthDomain{plainDomain: newPlainDomain(t), both: make(chan struct{})}
	tasks := []Task{{Measure: "a", Lo: 0, Hi: 8}, {Measure: "b", Lo: 0, Hi: 8}}
	err := ExecTasks(context.Background(), fuseSpec(d), tasks, ExecOptions{Workers: 2},
		func(Task, []float64, time.Duration) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
}
