//go:build !race

// The race detector's instrumentation allocates, so these exact
// allocation-count pins only run in non-race builds.

package dsa_test

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/job"
)

// TestIdentityAllocs pins what naming a point, a score and a task costs:
// the warm path derives all three per score, so an allocation here is
// paid thousands of times per sweep.
func TestIdentityAllocs(t *testing.T) {
	toy := newToyDomain()
	cfg, err := toy.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	keyer, err := dsa.NewScoreKeyer(toy, toy.SampleOpponents(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := toy.Space().Enumerate()[7]
	if _, err := toy.PointID(p); err != nil { // builds the index
		t.Fatal(err)
	}
	task := job.Task{Measure: toyRobustness, Lo: 99968, Hi: 100000}
	var (
		id   int
		key  dsa.CacheKey
		name string
	)
	for _, c := range []struct {
		what string
		want float64
		f    func()
	}{
		{"Base.PointID", 0, func() { id, _ = toy.PointID(p) }},
		{"ScoreKeyer.Key", 0, func() { key = keyer.Key(toyRobustness, id) }},
		{"Point.Key", 1, func() { name = p.Key() }},
		{"Task.ID", 1, func() { name = task.ID() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s allocates %v objects a call, want %v", c.what, got, c.want)
		}
	}
	_, _ = key, name
}

// mapCache is a ScoreCache that is a map: read-only once warm, so the
// single-worker passes below need no lock.
type mapCache map[dsa.CacheKey]float64

func (m mapCache) Get(k dsa.CacheKey) (float64, bool) { v, ok := m[k]; return v, ok }
func (m mapCache) Put(k dsa.CacheKey, v float64)      { m[k] = v }
func (m mapCache) GetOrCompute(dsa.CacheKey, func() (float64, error)) (float64, error) {
	panic("the engine scores through ExecTasks")
}

// warmTaskAllocs is what one fully cached task costs job.ExecTasks: its
// values, and as a unit of its own the taskRun, the resolved point IDs and
// the union-of-misses flags. Nothing in it grows with the task's points.
const warmTaskAllocs = 4

// TestWarmExecTasksAllocsPerTask pins that a fully warm pass allocates a
// constant per task and nothing per point: point IDs and cache keys are
// derived on the stack.
func TestWarmExecTasksAllocsPerTask(t *testing.T) {
	toy := newToyDomain()
	cfg, err := toy.DefaultConfig("quick")
	if err != nil {
		t.Fatal(err)
	}
	pts := toy.Space().Enumerate() // 12 points
	cache := mapCache{}
	sink := func(job.Task, []float64, time.Duration) error { return nil }
	// pass is the allocation count of one warm ExecTasks call over the
	// first n points in tasks of chunk points, both measures.
	pass := func(points []core.Point, chunk int) (allocs float64, tasks int) {
		spec := job.Spec{Domain: toy, Points: points, Cfg: cfg, Chunk: chunk}
		list := spec.Tasks()
		run := func() {
			if err := job.ExecTasks(context.Background(), spec, list, job.ExecOptions{Workers: 1, Cache: cache}, sink); err != nil {
				t.Fatal(err)
			}
		}
		run() // fills the cache
		before := len(cache)
		allocs = testing.AllocsPerRun(10, run)
		if len(cache) != before {
			t.Fatalf("a warm pass put %d scores", len(cache)-before)
		}
		return allocs, len(list)
	}
	wide, wideTasks := pass(pts, 12)    // 2 tasks of 12 points
	narrow, narrowTasks := pass(pts, 2) // 12 tasks of 2 points
	short, shortTasks := pass(pts[:2], 2)
	if shortTasks != wideTasks || short != wide {
		t.Errorf("%d tasks of 2 points allocate %v objects, of 12 points %v: a warm task's cost depends on its points",
			wideTasks, short, wide)
	}
	if got := (narrow - wide) / float64(narrowTasks-wideTasks); got != warmTaskAllocs {
		t.Errorf("a warm task allocates %v objects (%v for %d tasks, %v for %d), want %d",
			got, narrow, narrowTasks, wide, wideTasks, warmTaskAllocs)
	}
}

// writeCSVAllocs bounds what WriteCSV allocates besides one label string
// a row: the measure list, the header's raw_ names, the column table, the
// encoder and its buffers.
const writeCSVAllocs = 8

// TestWriteCSVAllocs pins that writing a delivery-sized CSV allocates the
// point label a row and nothing else per row: cells are appended to one
// reused row buffer, score cells without a string.
func TestWriteCSVAllocs(t *testing.T) {
	d := delivery.Domain()
	pts := d.Space().Enumerate() // 576 points
	// rows is the allocation count of writing the first n rows.
	rows := func(n int) float64 {
		s := syntheticScores(d, pts[:n])
		return testing.AllocsPerRun(10, func() {
			if err := dsa.WriteCSV(io.Discard, d, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	header, full := rows(0), rows(len(pts))
	if header > writeCSVAllocs {
		t.Errorf("a header-only CSV allocates %v objects, want at most %d", header, writeCSVAllocs)
	}
	if perRow := (full - header) / float64(len(pts)); perRow > 1 {
		t.Errorf("WriteCSV allocates %v objects a row (%v for %d rows, %v for the header), want at most 1, the label",
			perRow, full, len(pts), header)
	}
}
