package job

// The manifest is the only file a checkpoint appends to, so its
// contract is pinned from three sides: a crash at every byte offset
// restores exactly the lines that were whole, the line decoder is
// fuzzed, and concurrent recorders — who share fsyncs — each find
// their task on disk the moment Record returns.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delivery"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/pra"
)

// sameValues is bit-exact vector equality (NaN equals NaN).
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameCompleted(got, want map[string][]float64) error {
	for id, w := range want {
		if g, ok := got[id]; !ok || !sameValues(g, w) {
			return fmt.Errorf("task %s restored as %v (present %v), want %v", id, g, ok, w)
		}
	}
	for id, g := range got {
		if _, ok := want[id]; !ok {
			return fmt.Errorf("task %s restored as %v, want it absent", id, g)
		}
	}
	return nil
}

// TestManifestCrashPoints truncates a manifest holding records, a
// tombstone, a re-record and a trailing tombstone at every byte offset.
// A restore must see exactly the tasks whose last whole line is live,
// with that line's values; and a writer reopening the torn file must
// not lose the next task it records to the torn tail.
func TestManifestCrashPoints(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	tasks := spec.Tasks()
	if len(tasks) < 5 {
		t.Fatalf("spec has %d tasks, the scenario needs 5", len(tasks))
	}
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest-grid.jsonl")

	// The oracle is built from the writes, not from the decoder: each
	// event counts once the prefix holds its newline (linelog's rule).
	type event struct {
		end    int // bytes of manifest up to and including this line's '\n'
		task   string
		values []float64 // nil = tombstone
	}
	var events []event
	step := func(task Task, values []float64) {
		t.Helper()
		write := func(task Task) error { return cp.Append(AppendLine(nil, Result{Task: task, Dead: true}), true) }
		if values != nil {
			write = func(task Task) error { return cp.Record(task, values, 0) }
		}
		if err := write(task); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(manifestPath)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, event{end: int(st.Size()), task: task.ID(), values: values})
	}
	step(tasks[0], []float64{0.1, -2.5e-300})
	step(tasks[1], []float64{math.NaN(), math.Inf(1)})
	step(tasks[2], []float64{3, 1.0000000000000002})
	step(tasks[1], nil)
	step(tasks[1], []float64{7, math.Inf(-1)}) // differs from the dead line on purpose
	step(tasks[3], []float64{math.Copysign(0, -1), 12345.678901234567})
	step(tasks[2], nil)
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	fresh, freshVals := tasks[4], []float64{41, 42}

	for cut := 0; cut <= len(full); cut++ {
		want := map[string][]float64{}
		for _, e := range events {
			if e.end > cut {
				break
			}
			if e.values == nil {
				delete(want, e.task)
			} else if want[e.task] == nil {
				want[e.task] = e.values
			}
		}
		if err := os.WriteFile(manifestPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadCompleted(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := sameCompleted(got, want); err != nil {
			t.Fatalf("cut %d of %d (%q): %v", cut, len(full), full[max(0, cut-20):cut], err)
		}

		cp, err := OpenCheckpoint(dir, spec)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := sameCompleted(cp.Completed(), want); err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if err := cp.Record(fresh, freshVals, 0); err != nil {
			t.Fatalf("cut %d: record after reopen: %v", cut, err)
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		want[fresh.ID()] = freshVals
		if got, err = loadCompleted(dir); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if err := sameCompleted(got, want); err != nil {
			t.Fatalf("cut %d: after reopen + record: %v", cut, err)
		}
	}
}

// TestSchedulerLinesSkipped: a grid job's file — value lines naming their
// worker, CRC-framed scheduler records between them — loads to the same
// values as the file with the records dropped and the workers stripped,
// and a replay sees every line in order, the records as lines that name
// no task.
func TestSchedulerLinesSkipped(t *testing.T) {
	spec := faultSpec(t)
	tasks := spec.Tasks()
	vals := [][]float64{{0.5, math.NaN()}, {math.Inf(-1), 2}, {3, 1.0000000000000002}}
	sched := func(rec string) []byte { return []byte(`{"crc":1448909166,"rec":` + rec + "}\n") }
	var grid, plain []byte
	for k, line := range [][]byte{
		sched(`{"t":"lease","task":"` + tasks[0].ID() + `","worker":"w0"}`),
		AppendLine(nil, Result{Task: tasks[0], Values: vals[0], Elapsed: 4 * time.Millisecond, Worker: "w0"}),
		sched(`{"t":"verify","task":"` + tasks[0].ID() + `","worker":"w1","elapsed_ms":3}`),
		AppendLine(nil, Result{Task: tasks[1], Values: vals[1], Worker: "w1"}),
		sched(`{"t":"priority","weight":2}`),
		AppendLine(nil, Result{Task: tasks[1], Dead: true}),
		AppendLine(nil, Result{Task: tasks[2], Values: vals[2], Elapsed: time.Millisecond, Worker: "w\"1"}),
		sched(`{"t":"expire","task":"` + tasks[2].ID() + `","worker":"w0"}`),
	} {
		grid = append(grid, line...)
		if k != 0 && k != 2 && k != 4 && k != 7 {
			e, ok := decodeManifestLine(bytes.TrimSuffix(line, []byte("\n")))
			if !ok {
				t.Fatalf("line %d %q does not decode", k, line)
			}
			e.Worker = ""
			plain = append(appendManifestLine(plain, e), '\n')
		}
	}
	loaded := make([]map[string][]float64, 2)
	for i, data := range [][]byte{grid, plain} {
		dir := t.TempDir()
		cp, err := OpenCheckpoint(dir, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Append(data, true); err != nil {
			t.Fatal(err)
		}
		cp.Close()
		if loaded[i], err = loadCompleted(dir); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			break
		}
		var seen []string
		cp, err = OpenCheckpoint(dir, spec, func(line []byte, pos int, r Result, ok bool) {
			switch {
			case !ok:
				seen = append(seen, "record")
			case tasks[pos] != r.Task:
				seen = append(seen, fmt.Sprintf("%s at position %d", r.Task.ID(), pos))
			case r.Dead:
				seen = append(seen, "dead "+r.Task.ID())
			default:
				seen = append(seen, fmt.Sprintf("value %s %v %s", r.Task.ID(), r.Elapsed, r.Worker))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cp.Close()
		want := []string{"record", "value " + tasks[0].ID() + " 4ms w0", "record", "value " + tasks[1].ID() + " 0s w1",
			"record", "dead " + tasks[1].ID(), "value " + tasks[2].ID() + " 1ms w\"1", "record"}
		if !slices.Equal(seen, want) {
			t.Fatalf("replay saw\n%q\nwant\n%q", seen, want)
		}
	}
	if err := sameCompleted(loaded[0], loaded[1]); err != nil {
		t.Fatal(err)
	}
	if err := sameCompleted(loaded[0], map[string][]float64{tasks[0].ID(): vals[0], tasks[2].ID(): vals[2]}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendIsOneWriteOfRecordsLines: one Append of several tasks'
// AppendLine lines is a single write, and the lines are byte for byte
// what Record writes one at a time — a restore cannot tell the two apart.
func TestAppendIsOneWriteOfRecordsLines(t *testing.T) {
	spec := faultSpec(t)
	tasks := spec.Tasks()[:3]
	vals := [][]float64{{0.5, math.NaN()}, {math.Inf(-1), 2}, {3, 1.0000000000000002}}
	manifests := make([][]byte, 2)
	for i, together := range []bool{false, true} {
		dir := t.TempDir()
		cp, err := OpenCheckpoint(dir, spec)
		if err != nil {
			t.Fatal(err)
		}
		writes := 0
		restore := SetWriterSeam(func(path string, w io.Writer) io.Writer {
			if filepath.Base(path) == "manifest-grid.jsonl" {
				writes++
			}
			return w
		})
		if together {
			var lines []byte
			for k, task := range tasks {
				lines = AppendLine(lines, Result{Task: task, Values: vals[k], Elapsed: time.Duration(k) * time.Millisecond})
			}
			err = cp.Append(lines, true)
		} else {
			for k, task := range tasks {
				if err = cp.Record(task, vals[k], time.Duration(k)*time.Millisecond); err != nil {
					break
				}
			}
		}
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]int{false: len(tasks), true: 1}[together]; writes != want {
			t.Fatalf("together=%v: %d manifest writes, want %d", together, writes, want)
		}
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		if manifests[i], err = os.ReadFile(filepath.Join(dir, "manifest-grid.jsonl")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(manifests[0], manifests[1]) {
		t.Fatalf("Append wrote\n%s\nRecord, task by task, wrote\n%s", manifests[1], manifests[0])
	}
}

// oracleManifestLine is the reflection decoder the manifest had:
// json.Unmarshal into manifestEntry. Its values go through
// dsa.JSONFloats, whose own differential target (FuzzJSONFloats) holds
// them to the old []json.RawMessage codec.
func oracleManifestLine(line []byte) (e manifestEntry, ok bool) {
	return e, json.Unmarshal(line, &e) == nil
}

// refusedManifestForm names why the codec may refuse a line the oracle
// reads — a null where a value was due, or a key that matches a field
// only case-insensitively — or is "" for anything else.
func refusedManifestForm(line []byte) string {
	if hasNull(line) {
		return "null in place of a value"
	}
	var m map[string]json.RawMessage
	json.Unmarshal(line, &m)
	for k := range m {
		for _, want := range manifestKeys {
			if k != want && strings.EqualFold(k, want) {
				return "case-folded key"
			}
		}
	}
	return ""
}

// hasNull reports whether the JSON value raw holds a null anywhere.
func hasNull(raw []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if tok == nil {
			return true
		}
	}
}

// specRefusedForm names why the spec codec may refuse a spec.json the
// oracle reads — a null where a value was due, or a key, at any depth,
// that matches a spec or config field only case-insensitively — or is ""
// for anything else.
func specRefusedForm(raw []byte) string {
	if hasNull(raw) {
		return "null in place of a value"
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var objects []bool // per open container: whether it is an object
	key := false       // whether the next token is a key
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		if k, ok := tok.(string); ok && key {
			for _, want := range append(slices.Clone(specKeys), configKeys...) {
				if k != want && strings.EqualFold(k, want) {
					return "case-folded key"
				}
			}
			key = false
			continue
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			objects = append(objects, tok == json.Delim('{'))
			key = tok == json.Delim('{')
			continue
		case json.Delim('}'), json.Delim(']'):
			objects = objects[:len(objects)-1]
		}
		key = len(objects) > 0 && objects[len(objects)-1] // a value ended
	}
}

// specRefusedForms are spec.json forms the oracle reads and the codec
// refuses, one row per named form and place.
var specRefusedForms = []struct{ form, raw string }{
	{"null in place of a value", `{"version":3,"point_ids":null}`},
	{"case-folded key", `{"version":3,"DOMAIN":"gossip"}`},
	{"case-folded key", `{"version":3,"config":{"seed":1,"Peers":8}}`},
	{"case-folded key", `{"version":3,"config":{},"x":[{"a":1}],"config":{"CHURN":0.5}}`},
}

// TestSpecRefusedForms lists what the spec codec refuses that
// encoding/json would read.
func TestSpecRefusedForms(t *testing.T) {
	for _, row := range specRefusedForms {
		var sj specJSON
		if err := json.Unmarshal([]byte(row.raw), &sj); err != nil {
			t.Errorf("the oracle refuses %s: %v", row.raw, err)
		}
		if got, ok := decodeSpecJSON([]byte(row.raw)); ok {
			t.Errorf("the codec reads %s as %+v", row.raw, got)
		}
		if got := specRefusedForm([]byte(row.raw)); got != row.form {
			t.Errorf("%s is named %q, want %q", row.raw, got, row.form)
		}
	}
}

// manifestRefusedForms are the lines the oracle reads and the codec
// refuses, one per named form.
var manifestRefusedForms = []struct{ form, line string }{
	{"null in place of a value", `null`},
	{"null in place of a value", `{"task":"m-00000-00002","elapsed_ms":null,"values":[1,2]}`},
	{"case-folded key", `{"Task":"m-00000-00002","values":[1,2]}`},
	{"case-folded key", `{"task":"m-00000-00002","VALUES":[1,2]}`},
}

// TestManifestRefusedForms lists what the codec refuses that encoding/json
// would read.
func TestManifestRefusedForms(t *testing.T) {
	for _, row := range manifestRefusedForms {
		if _, ok := oracleManifestLine([]byte(row.line)); !ok {
			t.Errorf("the oracle refuses %s", row.line)
		}
		if e, ok := decodeManifestLine([]byte(row.line)); ok {
			t.Errorf("the codec reads %s as %+v", row.line, e)
		}
		if got := refusedManifestForm([]byte(row.line)); got != row.form {
			t.Errorf("%s is named %q, want %q", row.line, got, row.form)
		}
	}
}

// parentManifest is what testdata/parent-manifest.jsonl holds: these
// entries written by the reflection codec, one line each.
var parentManifest = []manifestEntry{
	{Task: "m-00000-00004", Values: []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0)}, ElapsedMS: 12},
	{Task: "m-00004-00008", Values: []float64{1e21, math.Nextafter(1e21, 0), 5e-324, math.MaxFloat64}, ElapsedMS: 3},
	{Task: "m-00008-00011", Values: []float64{math.NaN(), math.Inf(1), math.Inf(-1)}},
	{Task: "m-00004-00008", Dead: true},
	{Task: "m-00011-00015", Values: []float64{0.1, -1.23456e-10, 123456789012345680000, 1e-7}, ElapsedMS: 1 << 40},
	{Task: "m-00004-00008", Values: []float64{-1, 2.5, -math.MaxFloat64, -5e-324}, ElapsedMS: -2},
}

// TestParentManifest: a manifest the reflection codec wrote reads back
// to the entries it was given and restores to their values, and the hand
// codec writes it again byte for byte.
func TestParentManifest(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	lines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	if len(lines) != len(parentManifest) {
		t.Fatalf("%d lines, want %d", len(lines), len(parentManifest))
	}
	valid := map[string]Task{}
	for i, e := range parentManifest {
		d, ok := decodeManifestLine(lines[i])
		if !ok || d.Task != e.Task || !sameValues(d.Values, e.Values) || d.ElapsedMS != e.ElapsedMS || d.Dead != e.Dead {
			t.Errorf("line %d reads as %+v (ok %v), want %+v", i, d, ok, e)
		}
		got = append(appendManifestLine(got, e), '\n')
		var task Task
		fmt.Sscanf(e.Task, "m-%05d-%05d", &task.Lo, &task.Hi)
		task.Measure = "m"
		valid[task.ID()] = task
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the hand codec writes\n%s\nthe reflection codec wrote\n%s", got, want)
	}
	out := map[string][]float64{}
	for _, line := range lines {
		applyManifestLine(out, valid, line)
	}
	if err := sameCompleted(out, map[string][]float64{
		parentManifest[0].Task: parentManifest[0].Values,
		parentManifest[2].Task: parentManifest[2].Values,
		parentManifest[4].Task: parentManifest[4].Values,
		parentManifest[5].Task: parentManifest[5].Values,
	}); err != nil {
		t.Fatal(err)
	}
}

// FuzzManifestLine feeds the line decoder arbitrary bytes: whatever it
// makes of them, the restore's fold leaves what the ID-keyed oracle
// fold leaves, the restored map only ever holds tasks of the spec
// with exactly their number of values, and a line it accepts reads
// back to the same bits when re-encoded. Against the reflection
// decoder, the oracle: the codec never accepts a line it refuses, never
// reads another entry from one both accept, refuses one it reads only in
// a named form, re-encodes what it accepts to json.Marshal's bytes, and
// reads back every line json.Marshal writes.
func FuzzManifestLine(f *testing.F) {
	x := NewTaskIndex(Spec{Domain: measuresDomain{measures: []string{"m"}}, Points: make([]core.Point, 5), Chunk: 3})
	a, b := x.tasks[0], x.tasks[1] // m-00000-00003, m-00003-00005
	valid := map[string]Task{a.ID(): a, b.ID(): b}
	seed := func(line []byte) { f.Add(line, "", []byte(nil), int64(0), false) }
	seed([]byte(`{"task":"m-00003-00005","values":["NaN",-0.5],"elapsed_ms":3}`))
	seed([]byte(`{"task":"m-00000-00003","dead":true}`))
	seed([]byte(`{"task":"m-00000-00003","values":[0.25,"-Inf",1],"elapsed_ms":5,"worker":"w\u00e9\"0"}`))
	seed([]byte(`{"task":"m-00003-00005","values":[1,2,3]}`))
	seed([]byte(`{"task":"m-00003-00005","values":[1,"+Inf","-In`))
	seed([]byte(`{"task":"other-00000-00003","values":[1,2,3]}`))
	seed([]byte(`{"task":"m-00003-00005","values":[1,2],"dead":true}`))
	seed([]byte(`{"task":"m-0000\u0033-00005","values":[1,2]}`))
	seed([]byte(` {"values" : [ 1 ,2] ,"x":{"task":[]}, "task":"m-00003-005"}` + "\r"))
	for _, row := range manifestRefusedForms {
		seed([]byte(row.line))
	}
	for _, name := range []string{filepath.Join("testdata", "parent-manifest.jsonl"), filepath.Join("..", "grid", "testdata", "commit.golden")} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if bytes.HasPrefix(line, []byte(`{"task":`)) {
				seed(line)
			}
		}
	}
	for _, e := range parentManifest {
		var bits []byte
		for _, v := range e.Values {
			bits = binary.LittleEndian.AppendUint64(bits, math.Float64bits(v))
		}
		f.Add([]byte(nil), e.Task, bits, e.ElapsedMS, e.Dead)
	}
	f.Fuzz(func(t *testing.T, line []byte, task string, bits []byte, elapsed int64, dead bool) {
		before := []float64{1, 2, 3}
		out := map[string][]float64{a.ID(): before}
		foldBoth(t, x, [][]float64{before, nil}, out, line)
		for id, vals := range out {
			task, ok := valid[id]
			if !ok || len(vals) != task.Hi-task.Lo {
				t.Fatalf("line %q restored task %q with %d values", line, id, len(vals))
			}
		}
		if vals, ok := out[a.ID()]; ok && !sameValues(vals, before) {
			t.Fatalf("line %q overwrote a live entry with %v", line, vals)
		}
		if vals, ok := out[b.ID()]; ok {
			again := map[string][]float64{}
			applyManifestLine(again, valid, appendManifestLine(nil, manifestEntry{Task: b.ID(), Values: vals}))
			if !sameValues(again[b.ID()], vals) {
				t.Fatalf("line %q decoded to %v, which re-encodes to %v", line, vals, again[b.ID()])
			}
		}

		got, ok := decodeManifestLine(line)
		want, wantOK := oracleManifestLine(line)
		switch {
		case ok && !wantOK:
			t.Fatalf("codec accepts %q as %+v, the oracle refuses it", line, got)
		case ok && !sameEntry(got, want):
			t.Fatalf("codec reads %q as %+v, the oracle as %+v", line, got, want)
		case !ok && wantOK && refusedManifestForm(line) == "":
			t.Fatalf("codec refuses %q, which the oracle reads as %+v, in no named form", line, want)
		case ok:
			if canon, oracle := appendManifestLine(nil, got), mustMarshal(t, got); !bytes.Equal(canon, oracle) {
				t.Fatalf("%+v re-encodes to %s, the oracle writes %s", got, canon, oracle)
			}
		}

		e := manifestEntry{Task: task, ElapsedMS: elapsed, Worker: task, Dead: dead}
		for ; len(bits) >= 8; bits = bits[8:] {
			e.Values = append(e.Values, math.Float64frombits(binary.LittleEndian.Uint64(bits)))
		}
		written := mustMarshal(t, e)
		if mine := appendManifestLine(nil, e); !bytes.Equal(mine, written) {
			t.Fatalf("%+v: the codec writes %s, the oracle %s", e, mine, written)
		}
		back, ok := decodeManifestLine(written)
		want, _ = oracleManifestLine(written)
		if !ok || !sameEntry(back, want) {
			t.Fatalf("the old writer's %s reads back as %+v (ok %v), the oracle's %+v", written, back, ok, want)
		}
	})
}

func mustMarshal(t *testing.T, e manifestEntry) []byte {
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// sameEntry compares entries with their values bit for bit, a nil list
// apart from an empty one.
func sameEntry(a, b manifestEntry) bool {
	return a.Task == b.Task && a.ElapsedMS == b.ElapsedMS && a.Worker == b.Worker && a.Dead == b.Dead &&
		(a.Values == nil) == (b.Values == nil) && sameValues(a.Values, b.Values)
}

// FuzzDecodeSpec feeds the wire spec decoder arbitrary bytes. Against
// encoding/json, the oracle: the hand codec reads what json.Unmarshal
// reads into a specJSON, to the same fields, and refuses what it refuses,
// save in a named form (specRefusedForm); what it reads it writes as
// json.Marshal does. A payload DecodeSpec accepts re-encodes
// to canonical bytes — the bytes a job ID hashes, json.Marshal's of its
// specJSON. Decoding those gives back the same Spec (with the chunk a
// zero or negative one stands for), and encoding that again gives the
// same bytes.
func FuzzDecodeSpec(f *testing.F) {
	all := pra.Domain().Space().Enumerate()
	_, cfg := tinySweep(pra.Domain())
	for _, s := range []Spec{
		{Domain: pra.Domain(), Points: all[:3], Cfg: cfg, Chunk: 2},
		{Domain: gossip.Domain(), Points: gossip.Domain().Space().Enumerate()[:2], Cfg: dsa.Config{Peers: 8, Churn: 0.25, Seed: -3}},
		{Domain: delivery.Domain(), Points: delivery.Domain().Space().Enumerate()[4:5], Cfg: cfg, Chunk: -1},
	} {
		raw, err := EncodeSpec(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"version":3,"domain":"gossip","config":{"churn":-0,"seed":1000},"chunk":0,"measures":["coverage","robustness"],"point_ids":[7,7]}`))
	f.Add([]byte(`{"version":2,"domain":"swarming"}`))
	f.Add([]byte(` {"Version":3,"DOMAIN":"gossip","config":{"peers":1},"x":[{}],"config":{"Churn":1e-7},"measures":[],"point_ids":[0],"point_ids":[]}` + "\n"))
	f.Add([]byte(`{"version":3,"domain":"go\u0073sip","config":{"seed":-9223372036854775808},"chunk":1.5}`))
	f.Add([]byte(`{"version":3,"config":null}`))
	f.Add([]byte(`null`))
	for _, row := range specRefusedForms {
		f.Add([]byte(row.raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, ok := decodeSpecJSON(raw)
		var want specJSON
		wantOK := json.Unmarshal(raw, &want) == nil
		switch {
		case ok && !wantOK:
			t.Fatalf("codec accepts %q as %+v, the oracle refuses it", raw, got)
		case ok && !reflect.DeepEqual(got, want):
			t.Fatalf("codec reads %q as %+v, the oracle as %+v", raw, got, want)
		case !ok && wantOK && specRefusedForm(raw) == "":
			t.Fatalf("codec refuses %q, which the oracle reads as %+v, in no named form", raw, want)
		case ok:
			mine, err := appendSpecJSON(nil, got)
			oracle, oerr := json.Marshal(got)
			if err != nil || oerr != nil || !bytes.Equal(mine, oracle) {
				t.Fatalf("%+v: the codec writes %s (%v), the oracle %s (%v)", got, mine, err, oracle, oerr)
			}
		}

		s1, err := DecodeSpec(raw)
		if err != nil {
			return
		}
		canon, err := EncodeSpec(s1)
		if err != nil {
			t.Fatalf("accepted spec %q does not re-encode: %v", raw, err)
		}
		sj, err := specToJSON(s1)
		if err != nil {
			t.Fatal(err)
		}
		if oracle, err := json.Marshal(sj); err != nil || !bytes.Equal(canon, oracle) {
			t.Fatalf("spec %q: EncodeSpec writes %s, json.Marshal %s (%v)", raw, canon, oracle, err)
		}
		s2, err := DecodeSpec(canon)
		if err != nil {
			t.Fatalf("re-encoded spec %q does not decode: %v", canon, err)
		}
		s1.Chunk = s1.chunk()
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("spec %q decodes to %+v, its re-encoding %q to %+v", raw, s1, canon, s2)
		}
		again, err := EncodeSpec(s2)
		if err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("spec %q: encoding is not canonical: %q then %q (%v)", raw, canon, again, err)
		}
	})
}

// TestCheckpointConcurrentRecord: recorders sharing fsyncs still each
// get the Record contract — the task is visible to a fresh restore the
// moment the call returns — and the manifest stays whole lines.
func TestCheckpointConcurrentRecord(t *testing.T) {
	dir := t.TempDir()
	pts, cfg := tinySweep(pra.Domain())
	spec := Spec{Domain: pra.Domain(), Points: pts, Cfg: cfg, Chunk: 1}
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	tasks := spec.Tasks()
	valuesOf := func(task Task) []float64 { return []float64{float64(task.Lo) + 0.25} }
	next := make(chan Task)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for task := range next {
				if err := cp.Record(task, valuesOf(task), 0); err != nil {
					t.Error(err)
					continue
				}
				done, err := loadCompleted(dir)
				if err != nil {
					t.Error(err)
				} else if !sameValues(done[task.ID()], valuesOf(task)) {
					t.Errorf("task %s restored as %v right after Record returned", task.ID(), done[task.ID()])
				}
			}
		}()
	}
	for _, task := range tasks {
		next <- task
	}
	close(next)
	wg.Wait()
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest-grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != len(tasks) || raw[len(raw)-1] != '\n' {
		t.Fatalf("manifest holds %d lines for %d tasks", n, len(tasks))
	}
	done, err := loadCompleted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(tasks) {
		t.Fatalf("restored %d of %d tasks", len(done), len(tasks))
	}
}
