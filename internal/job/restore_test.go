package job

// A restore keys tasks by their position in Spec.Tasks: a manifest line's
// task name is parsed to that position, never looked up among formatted
// IDs. The map it replaced stays here as the oracle, and the directories
// the previous codec wrote must still load.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/jsonline"
	"repro/internal/pra"
)

// applyManifestLine is the restore's fold keyed as it was before tasks
// were kept by position: valid, a map of the spec's tasks by formatted
// ID, resolves the line's task, and out is keyed by ID. It is
// foldManifestLine's oracle.
func applyManifestLine(out map[string][]float64, valid map[string]Task, line []byte) (Result, bool) {
	e, ok := decodeManifestLine(line)
	t, known := valid[e.Task]
	switch {
	case !ok || !known || !e.Dead && len(e.Values) != t.Hi-t.Lo:
		return Result{}, false
	case e.Dead:
		delete(out, e.Task)
	case out[e.Task] == nil:
		out[e.Task] = e.Values
	}
	return Result{Task: t, Values: e.Values, Elapsed: time.Duration(e.ElapsedMS) * time.Millisecond, Worker: e.Worker, Dead: e.Dead}, true
}

// foldBoth folds line into done through foldManifestLine and into out
// through the oracle, where done and out hold the same entries of x's
// tasks, and fails t unless both return the same entry (or both refuse
// the line) and leave the same entries.
func foldBoth(t *testing.T, x TaskIndex, done [][]float64, out map[string][]float64, line []byte) {
	t.Helper()
	valid := map[string]Task{}
	for _, task := range x.tasks {
		valid[task.ID()] = task
	}
	i, got, ok := foldManifestLine(done, x, line)
	want, wantOK := applyManifestLine(out, valid, line)
	if ok != wantOK || got.Task != want.Task || got.Elapsed != want.Elapsed || got.Worker != want.Worker ||
		got.Dead != want.Dead || (got.Values == nil) != (want.Values == nil) || !sameValues(got.Values, want.Values) {
		t.Fatalf("line %q folds to %+v (%v), the ID map to %+v (%v)", line, got, ok, want, wantOK)
	}
	if ok && x.tasks[i] != want.Task {
		t.Fatalf("line %q folds at position %d, task %s, not at its own task %s", line, i, x.tasks[i].ID(), want.Task.ID())
	}
	for i, task := range x.tasks {
		if vals := out[task.ID()]; (done[i] == nil) != (vals == nil) || !sameValues(done[i], vals) {
			t.Fatalf("line %q leaves task %s at %v, the ID map at %v", line, task.ID(), done[i], vals)
		}
	}
}

// loadCompleted restores dir's tasks as Load does, keyed by task ID.
func loadCompleted(dir string) (map[string][]float64, error) {
	spec, err := readSpec(dir)
	if err != nil {
		return nil, err
	}
	x := NewTaskIndex(spec)
	done, err := readCompleted(dir, x, "")
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for i, vals := range done {
		if vals != nil {
			out[x.tasks[i].ID()] = vals
		}
	}
	return out, nil
}

// TestParentManifestFold: the lines the reflection codec wrote to
// testdata/parent-manifest.jsonl fold through the restore as through the
// ID-keyed oracle, over a spec holding all their tasks but m-00011-00015.
func TestParentManifestFold(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	x := NewTaskIndex(Spec{Domain: measuresDomain{measures: []string{"m"}}, Points: make([]core.Point, 11), Chunk: 4})
	done := make([][]float64, len(x.tasks))
	out := map[string][]float64{}
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		foldBoth(t, x, done, out, line)
	}
	for i, e := range []manifestEntry{parentManifest[0], parentManifest[5], parentManifest[2]} {
		if x.tasks[i].ID() != e.Task || !sameValues(done[i], e.Values) {
			t.Errorf("task %s restores to %v, want %s's %v", x.tasks[i].ID(), done[i], e.Task, e.Values)
		}
	}
}

// measuresDomain is a domain reduced to its measures, all a task index
// asks of one.
type measuresDomain struct {
	dsa.Domain
	measures []string
}

func (d measuresDomain) Measures() []string { return d.measures }

// indexMeasures may hold dashes and digits, so a name's split into
// measure, lo and hi is only right from the end.
var indexMeasures = []string{"performance", "a-00000", "m", "x-1-00002", ""}

var indexPoints = make([]core.Point, 130_000)

// FuzzTaskIndex holds the parse-based resolver to the formatted-ID map
// it replaced: over random measures, chunks and point counts (past
// 100 000, where %05d stops padding), every name — a task's ID, each
// one-byte mutation of it, arbitrary bytes — resolves to the same task or
// to none, and a manifest line naming the task through JSON escapes
// folds into the same restore: a value line, one with a value too many
// and a tombstone, over a restore that holds the task or does not.
func FuzzTaskIndex(f *testing.F) {
	f.Add(uint8(2), uint16(4), uint32(17), uint32(3), "m-00004-00008")
	f.Add(uint8(4), uint16(1), uint32(9), uint32(40), "-00000-00001")
	f.Add(uint8(0), uint16(99), uint32(100_003), uint32(1000), "performance-100000-100003")
	f.Add(uint8(1), uint16(31), uint32(129_999), uint32(7), "a-00000-099975-100000")
	f.Add(uint8(3), uint16(7), uint32(0), uint32(0), "x-1-00002-00000-00007")
	f.Fuzz(func(t *testing.T, nm uint8, chunk uint16, points uint32, pick uint32, name string) {
		measures := indexMeasures[:1+int(nm)%len(indexMeasures)]
		n := int(points % uint32(len(indexPoints)))
		spec := Spec{Domain: measuresDomain{measures: measures}, Points: indexPoints[:n],
			Chunk: max(1+int(chunk)%4096, (n+2047)/2048)}
		x := NewTaskIndex(spec)
		pos := map[string]int{}
		for i, task := range x.tasks {
			pos[task.ID()] = i
		}
		resolve := func(name string) {
			got, ok := x.Parse(name)
			want, wantOK := pos[name]
			if ok != wantOK || ok && got != want {
				t.Fatalf("%q resolves to %d (%v), the ID map to %d (%v)", name, got, ok, want, wantOK)
			}
		}
		resolve(name)
		if len(x.tasks) == 0 {
			return
		}
		task := x.tasks[int(pick%uint32(len(x.tasks)))]
		id := task.ID()
		resolve(id)
		for p := 0; p <= len(id); p++ {
			for _, b := range []byte("0-1a") {
				resolve(id[:p] + string(b) + id[p:])
				if p < len(id) {
					resolve(id[:p] + string(b) + id[p+1:])
				}
			}
			if p < len(id) {
				resolve(id[:p] + id[p+1:])
			}
		}

		values := strings.Repeat("0,", task.Hi-task.Lo-1) + "0.5"
		held := make([]float64, task.Hi-task.Lo)
		for _, quoted := range []string{escapeAll(id), escapeAll(name), string(jsonline.AppendString(nil, name))} {
			for _, rest := range []string{`"values":[` + values + `]`, `"values":[1,` + values + `]`, `"dead":true`} {
				done := make([][]float64, len(x.tasks))
				out := map[string][]float64{}
				if pick%2 == 1 {
					done[pos[id]], out[id] = held, held
				}
				foldBoth(t, x, done, out, []byte(`{"task":`+quoted+`,`+rest+`}`))
			}
		}
	})
}

// escapeAll quotes s with every byte as a \u00XX escape.
func escapeAll(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		fmt.Fprintf(&b, `\u%04x`, s[i])
	}
	b.WriteByte('"')
	return b.String()
}

// parentSpecs are the sweeps of testdata/parent-spec: one directory per
// registered domain, spec.json and manifest written by the engine that
// encoded spec.json with encoding/json.
var parentSpecs = []struct {
	d     dsa.Domain
	cfg   dsa.Config
	chunk int
}{
	{pra.Domain(), dsa.Config{Peers: 8, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}, 5},
	{gossip.Domain(), dsa.Config{Peers: 8, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: -3, Churn: 0.25}, 3},
	{delivery.Domain(), dsa.Config{Peers: 8, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 1000}, 4},
}

// TestParentSpecs: for every registered domain, the hand codec writes
// the parent's spec.json byte for byte, and Load of the parent's
// directory gives the Scores a fresh Run of the same sweep gives.
func TestParentSpecs(t *testing.T) {
	var names []string
	for _, row := range parentSpecs {
		names = append(names, row.d.Name())
		dir := filepath.Join("testdata", "parent-spec", row.d.Name())
		pts := dsa.StridePoints(row.d, max(row.d.Space().Size()/16, 1))
		want, err := os.ReadFile(filepath.Join(dir, specFileName))
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeSpec(Spec{Domain: row.d, Points: pts, Cfg: row.cfg, Chunk: row.chunk})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the hand codec writes\n%s\nthe parent wrote\n%s", row.d.Name(), got, want)
		}
		loaded, err := Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", row.d.Name(), err)
		}
		ran, err := Run(context.Background(), row.d, pts, row.cfg, Options{Chunk: row.chunk})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded, ran) {
			t.Errorf("%s: Load of the parent's directory differs from a fresh Run", row.d.Name())
		}
	}
	for _, name := range dsa.Names() {
		if !slices.Contains(names, name) {
			t.Errorf("registered domain %q has no directory in testdata/parent-spec", name)
		}
	}
}
