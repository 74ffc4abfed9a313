package job

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/obs"
	"repro/internal/pra"
)

// TestTracedRunIdentical pins the first obs contract at the engine
// seam: a traced sweep and an untraced sweep produce identical Scores.
func TestTracedRunIdentical(t *testing.T) {
	plain := mustRun(t, pra.Domain(), Options{Chunk: 4, Workers: 2})

	rec, err := obs.OpenDir(t.TempDir(), "s0of1")
	if err != nil {
		t.Fatal(err)
	}
	traced := mustRun(t, pra.Domain(), Options{Chunk: 4, Workers: 2, Trace: rec})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.Raw, traced.Raw) {
		t.Fatal("traced sweep diverged from untraced")
	}
}

func TestRunJournalsSweepAndTasks(t *testing.T) {
	pts, cfg := tinySweep(pra.Domain())
	dir := t.TempDir()
	rec, err := obs.OpenDir(dir, "s0of1")
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	mustRun(t, pra.Domain(), Options{Chunk: 4, Workers: 2, Trace: rec, Progress: func(p Progress) { last = p }})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Domain: pra.Domain(), Points: pts, Cfg: cfg, Chunk: 4}
	wantTasks := len(spec.Tasks())

	var sweep *obs.Record
	tasks := 0
	sims := 0
	for i := range recs {
		switch recs[i].Name {
		case "sweep":
			sweep = &recs[i]
		case "task":
			tasks++
		case "simulate":
			sims++
		}
	}
	if sweep == nil {
		t.Fatal("no sweep span journalled")
	}
	if got := sweep.AttrStr("domain"); got != pra.Domain().Name() {
		t.Errorf("sweep domain = %q", got)
	}
	if got := sweep.AttrInt("tasks"); got != int64(wantTasks) {
		t.Errorf("sweep tasks attr = %d, want %d", got, wantTasks)
	}
	if got := sweep.AttrInt("done"); got != int64(wantTasks) {
		t.Errorf("sweep done attr = %d, want %d", got, wantTasks)
	}
	if tasks != wantTasks {
		t.Errorf("task spans = %d, want %d", tasks, wantTasks)
	}
	if sims != wantTasks { // no cache: every task simulates once
		t.Errorf("simulate spans = %d, want %d", sims, wantTasks)
	}
	// Task spans parent under the sweep and carry full attribution.
	for _, r := range recs {
		if r.Name != "task" {
			continue
		}
		if r.Parent != sweep.ID {
			t.Fatalf("task span parent = %d, want sweep %d", r.Parent, sweep.ID)
		}
		pts := r.AttrInt("points")
		if pts <= 0 || r.AttrStr("measure") == "" || r.AttrStr("task") == "" {
			t.Fatalf("task span missing attribution: %+v", r)
		}
		if r.AttrInt("cache_hits")+r.AttrInt("simulated") != pts {
			t.Fatalf("task span hits+simulated != points: %+v", r)
		}
	}

	// The live counts are the engine's, in the last Progress snapshot.
	wantPoints := len(pts) * len(pra.Domain().Measures())
	if last.FreshTasks != wantTasks || last.PointsSimulated != wantPoints || last.PointsCached != 0 {
		t.Errorf("last progress = %d tasks, %d/%d points simulated/cached, want %d, %d/0",
			last.FreshTasks, last.PointsSimulated, last.PointsCached, wantTasks, wantPoints)
	}
}

// TestTracedCacheAttribution pins what the journal of a cached, traced
// sweep holds, cold, warm and partially warm, on a domain that scores a
// chunk's measures jointly: one "sweep" span, per task one "task" span
// and its one "cache-lookup" span, one "simulate" span per execution
// unit with a miss — and nothing per key. Each fact has one owner and
// they agree: the task spans' cache_hits/simulated sum to the store's
// own hit/miss deltas and to the engine's Progress point counts.
func TestTracedCacheAttribution(t *testing.T) {
	d := delivery.Domain()
	pts, cfg := tinySweep(d)
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const chunk, warmed = 4, 6 // the partial case finds 6 of 16 points cached: a chunk and a half

	for _, tc := range []struct {
		name          string
		pts           []core.Point
		hits, misses  int // points x measures
		simulateSpans int // units with a miss
	}{
		{"cold", pts[:warmed], 0, warmed * 4, 2},
		{"partially warm", pts, warmed * 4, (len(pts) - warmed) * 4, 3},
		{"warm", pts, len(pts) * 4, 0, 0},
	} {
		dir := t.TempDir()
		rec, err := obs.OpenDir(dir, "s0of1")
		if err != nil {
			t.Fatal(err)
		}
		before := store.Stats()
		var last Progress
		_, err = Run(context.Background(), d, tc.pts, cfg, Options{
			Chunk: chunk, Workers: 2, Cache: store, Trace: rec, Progress: func(p Progress) { last = p }})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		after := store.Stats()
		recs, err := obs.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}

		tasks := len(Spec{Domain: d, Points: tc.pts, Chunk: chunk}.Tasks())
		names := map[string]int{}
		spanHits, spanSim := 0, 0
		for _, r := range recs {
			names[r.Name]++
			if _, ok := r.Attrs["outcome"]; ok {
				t.Errorf("%s: record %q carries an outcome attribute: %+v", tc.name, r.Name, r)
			}
			if r.Name == "task" {
				spanHits += int(r.AttrInt("cache_hits"))
				spanSim += int(r.AttrInt("simulated"))
			}
		}
		want := map[string]int{"sweep": 1, "task": tasks, "cache-lookup": tasks}
		if tc.simulateSpans > 0 {
			want["simulate"] = tc.simulateSpans
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s: journal holds %v, want %v", tc.name, names, want)
		}
		if spanHits != tc.hits || spanSim != tc.misses {
			t.Errorf("%s: task spans sum to %d hits / %d simulated, want %d/%d", tc.name, spanHits, spanSim, tc.hits, tc.misses)
		}
		if h, m := int(after.Hits-before.Hits), int(after.Misses-before.Misses); h != spanHits || m != spanSim {
			t.Errorf("%s: store counted %d hits / %d misses, the task spans say %d/%d", tc.name, h, m, spanHits, spanSim)
		}
		if last.FreshTasks != tasks || last.PointsCached != tc.hits || last.PointsSimulated != tc.misses {
			t.Errorf("%s: last progress = %d tasks, %d cached / %d simulated points, want %d, %d/%d",
				tc.name, last.FreshTasks, last.PointsCached, last.PointsSimulated, tasks, tc.hits, tc.misses)
		}
	}
}
