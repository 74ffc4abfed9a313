package job

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/jsonline"
	"repro/internal/linelog"
)

// WriteError, SetWriterSeam and WrapWriter live in internal/linelog with
// the rest of the durable-write machinery; these forwarders keep the
// names the chaos harness and the perf ledger install their seams by.
type WriteError = linelog.WriteError

// SetWriterSeam is linelog.SetWriterSeam.
func SetWriterSeam(fn func(path string, w io.Writer) io.Writer) (restore func()) {
	return linelog.SetWriterSeam(fn)
}

// WrapWriter is linelog.WrapWriter.
func WrapWriter(path string, w io.Writer) io.Writer { return linelog.WrapWriter(path, w) }

// Checkpoint layout under one directory:
//
//	spec.json                    — the sweep Spec (domain name, config,
//	                               chunking, measures, point IDs);
//	                               written once, verified on every open
//	                               so a resume can never silently mix
//	                               incompatible results
//	manifest-s<I>of<N>.jsonl     — append-only log written by shard I of
//	                               N, one line per event: a completed
//	                               task with its values inline, or a
//	                               tombstone un-recording one. A resumed
//	                               or re-sharded run opens its own file,
//	                               and loading always merges every
//	                               manifest-*.jsonl present; a line
//	                               naming no task (a grid job's
//	                               scheduler record) is skipped
//
// Each manifest is a linelog.Log and every append to it is durable, so
// a crash can lose at most the in-flight tasks: a torn line makes that
// task re-run, never mis-merge. Shard processes on different machines
// use separate dirs and the manifests are simply copied together for
// the merge.

const specFileName = "spec.json"

// specVersion is the checkpoint spec format written by this engine.
// Version 1 was the pre-Domain engine (file-swarming only, tasks keyed
// by pra.ScoreKind); version 2 keys everything by domain name + measure
// strings + point IDs, with values in per-task result files; version 3
// carries the values in the manifest lines themselves. Old versions are
// rejected, never mis-merged.
const specVersion = 3

type specJSON struct {
	Version  int        `json:"version"`
	Domain   string     `json:"domain"`
	Config   configJSON `json:"config"`
	Chunk    int        `json:"chunk"`
	Measures []string   `json:"measures"`
	PointIDs []int      `json:"point_ids"`
}

// configJSON is the result-affecting subset of dsa.Config. Workers is
// deliberately absent: it changes speed, never values.
type configJSON struct {
	Peers         int     `json:"peers"`
	Rounds        int     `json:"rounds"`
	PerfRuns      int     `json:"perf_runs"`
	EncounterRuns int     `json:"encounter_runs"`
	Opponents     int     `json:"opponents"`
	Seed          int64   `json:"seed"`
	Churn         float64 `json:"churn"`
}

func specToJSON(s Spec) (specJSON, error) {
	ids := make([]int, len(s.Points))
	for i, p := range s.Points {
		id, err := s.Domain.PointID(p)
		if err != nil {
			return specJSON{}, fmt.Errorf("job: checkpoint spec: %w", err)
		}
		ids[i] = id
	}
	return specJSON{
		Version: specVersion,
		Domain:  s.Domain.Name(),
		Config: configJSON{
			Peers: s.Cfg.Peers, Rounds: s.Cfg.Rounds,
			PerfRuns: s.Cfg.PerfRuns, EncounterRuns: s.Cfg.EncounterRuns,
			Opponents: s.Cfg.Opponents, Seed: s.Cfg.Seed, Churn: s.Cfg.Churn,
		},
		Chunk:    s.chunk(),
		Measures: s.Domain.Measures(),
		PointIDs: ids,
	}, nil
}

// errSpecVersion builds the rejection error for a checkpoint written by
// a different engine generation.
func errSpecVersion(dir string, have int) error {
	if have < specVersion {
		return fmt.Errorf("job: checkpoint %s has spec version %d, this engine writes version %d: "+
			"it was written by an older engine generation (version 1 predates the domain-agnostic sweep API, version 2 kept values in per-task files) "+
			"and cannot be resumed or merged — re-run the sweep into a fresh directory, or keep the old binary to finish it", dir, have, specVersion)
	}
	return fmt.Errorf("job: checkpoint %s has spec version %d, this engine only understands version %d: "+
		"it was written by a newer engine — resume or merge it with that engine version", dir, have, specVersion)
}

func specFromJSON(dir string, sj specJSON) (Spec, error) {
	if sj.Version != specVersion {
		return Spec{}, errSpecVersion(dir, sj.Version)
	}
	d, err := dsa.Get(sj.Domain)
	if err != nil {
		return Spec{}, fmt.Errorf("job: checkpoint %s: %w", dir, err)
	}
	if !slices.Equal(sj.Measures, d.Measures()) {
		return Spec{}, fmt.Errorf("job: checkpoint %s measures %v do not match domain %q measures %v",
			dir, sj.Measures, d.Name(), d.Measures())
	}
	points := make([]core.Point, len(sj.PointIDs))
	for i, id := range sj.PointIDs {
		p, err := d.PointByID(id)
		if err != nil {
			return Spec{}, fmt.Errorf("job: checkpoint spec: %w", err)
		}
		points[i] = p
	}
	return Spec{
		Domain: d,
		Points: points,
		Cfg: dsa.Config{
			Peers: sj.Config.Peers, Rounds: sj.Config.Rounds,
			PerfRuns: sj.Config.PerfRuns, EncounterRuns: sj.Config.EncounterRuns,
			Opponents: sj.Config.Opponents, Seed: sj.Config.Seed, Churn: sj.Config.Churn,
		},
		Chunk: sj.Chunk,
	}, nil
}

// specKeys and configKeys are specJSON's and configJSON's keys.
var (
	specKeys   = []string{"version", "domain", "config", "chunk", "measures", "point_ids"}
	configKeys = []string{"peers", "rounds", "perf_runs", "encounter_runs", "opponents", "seed", "churn"}
)

// appendSpecJSON appends sj as json.Marshal writes it: the bytes of
// spec.json, which a grid job ID hashes. A churn that is no JSON number
// is refused, as json.Marshal refuses it.
func appendSpecJSON(b []byte, sj specJSON) ([]byte, error) {
	c := sj.Config
	if math.IsNaN(c.Churn) || math.IsInf(c.Churn, 0) {
		return nil, fmt.Errorf("job: checkpoint spec: churn %v is not a JSON number", c.Churn)
	}
	b = strconv.AppendInt(append(b, `{"version":`...), int64(sj.Version), 10)
	b = jsonline.AppendString(append(b, `,"domain":`...), sj.Domain)
	b = strconv.AppendInt(append(b, `,"config":{"peers":`...), int64(c.Peers), 10)
	b = strconv.AppendInt(append(b, `,"rounds":`...), int64(c.Rounds), 10)
	b = strconv.AppendInt(append(b, `,"perf_runs":`...), int64(c.PerfRuns), 10)
	b = strconv.AppendInt(append(b, `,"encounter_runs":`...), int64(c.EncounterRuns), 10)
	b = strconv.AppendInt(append(b, `,"opponents":`...), int64(c.Opponents), 10)
	b = strconv.AppendInt(append(b, `,"seed":`...), c.Seed, 10)
	b = jsonline.AppendFloat(append(b, `,"churn":`...), c.Churn)
	b = strconv.AppendInt(append(b, `},"chunk":`...), int64(sj.Chunk), 10)
	b = appendList(append(b, `,"measures":`...), sj.Measures, jsonline.AppendString)
	b = appendList(append(b, `,"point_ids":`...), sj.PointIDs, func(b []byte, id int) []byte {
		return strconv.AppendInt(b, int64(id), 10)
	})
	return append(b, '}'), nil
}

// appendList appends s as json.Marshal writes a slice: null when nil,
// else its elements, each by elem, between brackets.
func appendList[T any](b []byte, s []T, elem func([]byte, T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, v)
	}
	return append(b, ']')
}

// decodeSpecJSON reads spec.json as json.Unmarshal reads it into a
// specJSON, a repeated "config" merged into the one before; ok is false
// for anything else, for a null in place of a value and for a key that
// matches a field only case-insensitively.
func decodeSpecJSON(raw []byte) (sj specJSON, ok bool) {
	cfgOK := true
	o := jsonline.NewObject(raw)
	for o.Next() {
		switch string(o.Key()) {
		case "version":
			sj.Version = int(o.Int(strconv.IntSize))
		case "domain":
			sj.Domain = o.String()
		case "config":
			cfgOK = cfgOK && decodeConfigJSON(&sj.Config, o.Raw())
		case "chunk":
			sj.Chunk = int(o.Int(strconv.IntSize))
		case "measures":
			sj.Measures = o.Strings()
		case "point_ids":
			sj.PointIDs = o.Ints()
		default:
			o.Skip(specKeys...)
		}
	}
	return sj, o.End() && cfgOK
}

// decodeConfigJSON reads a config object into c.
func decodeConfigJSON(c *configJSON, raw []byte) bool {
	o := jsonline.NewObject(raw)
	for o.Next() {
		switch string(o.Key()) {
		case "peers":
			c.Peers = int(o.Int(strconv.IntSize))
		case "rounds":
			c.Rounds = int(o.Int(strconv.IntSize))
		case "perf_runs":
			c.PerfRuns = int(o.Int(strconv.IntSize))
		case "encounter_runs":
			c.EncounterRuns = int(o.Int(strconv.IntSize))
		case "opponents":
			c.Opponents = int(o.Int(strconv.IntSize))
		case "seed":
			c.Seed = o.Int(64)
		case "churn":
			c.Churn = o.Float()
		default:
			o.Skip(configKeys...)
		}
	}
	return o.End()
}

// EncodeSpec serialises a Spec in the checkpoint spec wire format (the
// bytes of spec.json). The grid coordinator ships this to workers so
// lease execution and checkpoint resume share one spec codec.
func EncodeSpec(s Spec) ([]byte, error) {
	sj, err := specToJSON(s)
	if err != nil {
		return nil, err
	}
	return appendSpecJSON(nil, sj)
}

// DecodeSpec parses an EncodeSpec payload back into a Spec. The domain
// is resolved through the dsa registry, so the calling program must
// import the domain's package.
func DecodeSpec(raw []byte) (Spec, error) {
	sj, ok := decodeSpecJSON(raw)
	if !ok {
		return Spec{}, fmt.Errorf("job: corrupt spec payload (%d bytes)", len(raw))
	}
	return specFromJSON("(wire spec)", sj)
}

// manifestEntry is one manifest line: a completed task with its values
// (score tokens for NaN/±Inf, which a domain may legitimately produce and
// the CSV codec already round-trips) and, if a grid worker computed it,
// that worker's name; or, with Dead set, a tombstone cancelling every
// earlier line of that task. appendManifestLine and
// decodeManifestLine are its codec; the tags say which bytes they write
// (json.Marshal's for this struct) and are what the tests' encoding/json
// oracle reads.
type manifestEntry struct {
	Task      string         `json:"task"`
	Values    dsa.JSONFloats `json:"values,omitempty"`
	ElapsedMS int64          `json:"elapsed_ms,omitempty"`
	Worker    string         `json:"worker,omitempty"`
	Dead      bool           `json:"dead,omitempty"`
}

var manifestKeys = []string{"task", "values", "elapsed_ms", "worker", "dead"}

// appendManifestLine appends e's line, without its newline.
func appendManifestLine(b []byte, e manifestEntry) []byte {
	b = append(b, `{"task":`...)
	b = jsonline.AppendString(b, e.Task)
	if len(e.Values) > 0 {
		b = append(b, `,"values":`...)
		b = jsonline.AppendFloats(b, e.Values)
	}
	if e.ElapsedMS != 0 {
		b = append(b, `,"elapsed_ms":`...)
		b = strconv.AppendInt(b, e.ElapsedMS, 10)
	}
	if e.Worker != "" {
		b = append(b, `,"worker":`...)
		b = jsonline.AppendString(b, e.Worker)
	}
	if e.Dead {
		b = append(b, `,"dead":true`...)
	}
	return append(b, '}')
}

// decodeManifestLine reads one manifest line; ok is false for anything
// but a well-formed entry.
func decodeManifestLine(line []byte) (manifestEntry, bool) {
	e, task, ok := scanManifestLine(line)
	e.Task = string(task)
	return e, ok
}

// scanManifestLine is decodeManifestLine leaving the task's name out of
// the entry: its bytes, in place in line unless it was written escaped.
func scanManifestLine(line []byte) (e manifestEntry, task []byte, ok bool) {
	o := jsonline.NewObject(line)
	for o.Next() {
		switch string(o.Key()) {
		case "task":
			task = o.Bytes()
		case "values":
			e.Values = o.Floats()
		case "elapsed_ms":
			e.ElapsedMS = o.Int(64)
		case "worker":
			e.Worker = o.String()
		case "dead":
			e.Dead = o.Bool()
		default:
			o.Skip(manifestKeys...)
		}
	}
	return e, task, o.End()
}

// Checkpoint is one process's open handle on a checkpoint directory.
type Checkpoint struct {
	manifest *linelog.Log
	tasks    []Task      // the spec's, in Spec.Tasks order
	done     [][]float64 // by position in tasks: restored at open, then Run's results
}

// openCheckpoint prepares dir for (spec, shard shardIndex of shards):
// it creates the directory, writes or verifies spec.json, restores
// every completed task from existing manifests, and opens this shard's
// manifest for appending.
func openCheckpoint(dir string, spec Spec, x TaskIndex, shards, shardIndex int) (*Checkpoint, error) {
	return openCheckpointNamed(dir, spec, x, fmt.Sprintf("manifest-s%dof%d.jsonl", shardIndex, shards))
}

// openCheckpointNamed is openCheckpoint with an explicit manifest file
// name (every writer appends to its own manifest; loading merges all
// manifest-*.jsonl present) and replay (OpenCheckpoint).
func openCheckpointNamed(dir string, spec Spec, x TaskIndex, manifestName string, replay ...func(line []byte, i int, r Result, ok bool)) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: checkpoint dir: %w", err)
	}
	want, err := specToJSON(spec)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, specFileName)
	if raw, err := os.ReadFile(specPath); err == nil {
		have, ok := decodeSpecJSON(raw)
		switch {
		case !ok:
			return nil, fmt.Errorf("job: corrupt %s", specPath)
		case have.Version != want.Version:
			return nil, errSpecVersion(dir, have.Version)
		case have.Domain != want.Domain:
			return nil, fmt.Errorf("job: checkpoint %s sweeps domain %q, this run sweeps %q", dir, have.Domain, want.Domain)
		case have.Config != want.Config:
			return nil, fmt.Errorf("job: checkpoint %s was written with a different configuration (have %+v, want %+v)", dir, have.Config, want.Config)
		case have.Chunk != want.Chunk:
			return nil, fmt.Errorf("job: checkpoint %s uses chunk %d, this run wants %d", dir, have.Chunk, want.Chunk)
		case !slices.Equal(have.Measures, want.Measures):
			return nil, fmt.Errorf("job: checkpoint %s covers measures %v, this run computes %v", dir, have.Measures, want.Measures)
		case !slices.Equal(have.PointIDs, want.PointIDs):
			return nil, fmt.Errorf("job: checkpoint %s covers a different point set (%d points, this run sweeps %d)", dir, len(have.PointIDs), len(want.PointIDs))
		}
	} else if os.IsNotExist(err) {
		raw, err := appendSpecJSON(nil, want)
		if err != nil {
			return nil, err
		}
		if err := writeFileAtomic(specPath, raw); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("job: checkpoint spec: %w", err)
	}

	done, err := readCompleted(dir, x, manifestName, replay...)
	if err != nil {
		return nil, err
	}
	manifest, err := linelog.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("job: open manifest: %w", err)
	}
	return &Checkpoint{manifest: manifest, tasks: x.tasks, done: done}, nil
}

// OpenCheckpoint opens (or creates) dir for spec, writing or verifying
// spec.json exactly like a local run would, for external ingesters: the
// grid coordinator records results computed by remote workers through
// it, so grid runs and local runs share one on-disk format — Load,
// dsa-report and a local -resume all work on a directory regardless of
// which engine filled it. The coordinator appends to its own manifest
// file (manifest-grid.jsonl), so a directory may mix grid-ingested and
// shard-run results.
//
// replay, if given, sees each whole line of that file in order, during the
// restore's one read of it, with ok set, r its entry and i its task's
// position in Spec.Tasks for a value or tombstone of one of spec's tasks;
// any other line — the caller's own record, or a corrupt one — is not ok.
func OpenCheckpoint(dir string, spec Spec, replay ...func(line []byte, i int, r Result, ok bool)) (*Checkpoint, error) {
	return openCheckpointNamed(dir, spec, NewTaskIndex(spec), "manifest-grid.jsonl", replay...)
}

// Values is what the directory's manifests held at open time, by
// position in Spec.Tasks: a task's values, nil if it is not done. The
// caller must not modify it.
func (c *Checkpoint) Values() [][]float64 { return c.done }

// Completed returns the task-ID → values map restored from the
// directory's manifests at open time. The caller takes ownership.
func (c *Checkpoint) Completed() map[string][]float64 {
	out := make(map[string][]float64)
	for i, vals := range c.done {
		if vals != nil {
			out[c.tasks[i].ID()] = vals
		}
	}
	return out
}

// Result is one manifest entry: a finished task's values, how long it took
// and, if a grid worker computed it, which one; or, with Dead set, a
// tombstone that makes every restore drop the task's earlier lines.
type Result struct {
	Task    Task
	Values  []float64
	Elapsed time.Duration
	Worker  string
	Dead    bool
}

// AppendLine appends r's manifest line, newline included.
func AppendLine(b []byte, r Result) []byte {
	e := manifestEntry{Task: r.Task.ID(), Values: r.Values, ElapsedMS: r.Elapsed.Milliseconds(), Worker: r.Worker, Dead: r.Dead}
	return append(appendManifestLine(b, e), '\n')
}

// Append appends whole lines — AppendLine's, or records of the caller's
// own that name no task, which every restore skips — with a single write;
// with durable set it returns once everything appended so far is on disk
// (linelog.Log.Append: a crash keeps the lines whose '\n' reached the
// disk, a failed append keeps none, durable calls share fsyncs).
func (c *Checkpoint) Append(lines []byte, durable bool) error {
	return c.manifest.Append(lines, durable)
}

// Record persists one finished task's line and returns once it is
// durable, so a crash right after it loses nothing: what a local run
// journals as each task lands.
func (c *Checkpoint) Record(t Task, values []float64, elapsed time.Duration) error {
	return c.Append(AppendLine(nil, Result{Task: t, Values: values, Elapsed: elapsed}), true)
}

// Close closes the manifest. Record must not be called after Close.
func (c *Checkpoint) Close() error { return c.manifest.Close() }

// TaskIndex is a spec's task list, Spec.Tasks, and the one way the engine
// and the grid coordinator find a task in it: by position. Chunk c's task
// of measure m sits at c·len(measures) + m. A task's name, Task.ID, is
// parsed to its position where it arrives and formatted only where it is
// written.
type TaskIndex struct {
	spec     Spec
	tasks    []Task
	measures []string
}

// NewTaskIndex lists s's tasks.
func NewTaskIndex(s Spec) TaskIndex {
	return TaskIndex{spec: s, tasks: s.Tasks(), measures: s.Domain.Measures()}
}

// Tasks is Spec.Tasks. The caller must not modify it.
func (x TaskIndex) Tasks() []Task { return x.tasks }

// Of is the position of t, a task of the spec.
func (x TaskIndex) Of(t Task) int {
	return t.Lo/x.spec.chunk()*len(x.measures) + slices.Index(x.measures, t.Measure)
}

// Parse is the position of the task whose ID is name. It accepts exactly
// the names Task.ID formats for the spec's tasks: "measure-lo-hi", split
// at the last two dashes (a measure may hold dashes, a number cannot),
// each number as %05d prints it.
func (x TaskIndex) Parse(name string) (int, bool) { return parseTask(x, name) }

// parseTask is Parse of a name's string or of its bytes, which a restore
// reads in place.
func parseTask[S string | []byte](x TaskIndex, name S) (int, bool) {
	j := lastDash(name)
	k := lastDash(name[:max(j, 0)])
	if k < 0 {
		return 0, false
	}
	lo, loOK := parsePad5(name[k+1 : j])
	hi, hiOK := parsePad5(name[j+1:])
	m, chunk := -1, x.spec.chunk()
	for i, measure := range x.measures {
		if string(name[:k]) == measure {
			m = i
			break
		}
	}
	if !loOK || !hiOK || m < 0 || lo%chunk != 0 || lo/chunk >= len(x.tasks)/len(x.measures) {
		return 0, false
	}
	i := lo/chunk*len(x.measures) + m
	return i, x.tasks[i].Hi == hi
}

// lastDash is the index of s's last '-', or -1.
func lastDash[S string | []byte](s S) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '-' {
			return i
		}
	}
	return -1
}

// parsePad5 reads a non-negative number as appendPad5 writes it: digits,
// zero-padded to five and unpadded past that. More than 18 are refused:
// so large a number is no task's bound.
func parsePad5[S string | []byte](s S) (int, bool) {
	if len(s) < 5 || len(s) > 18 || len(s) > 5 && s[0] == '0' {
		return 0, false
	}
	n := 0
	for i := range len(s) {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

// readCompleted merges every manifest in dir into per-task values, by
// position in x.tasks (nil: not done). Lines apply in order: the first
// live entry of a task wins (a re-recorded task carries the same values
// by determinism), a tombstone cancels what precedes it. Lines that are
// corrupt, name no task or are inconsistent with the spec's task list
// are skipped — the engine just re-runs those tasks — so a crash
// mid-write can never corrupt a resumed sweep. replay sees the lines of
// the manifest named own (OpenCheckpoint).
func readCompleted(dir string, x TaskIndex, own string, replay ...func(line []byte, i int, r Result, ok bool)) ([][]float64, error) {
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.jsonl"))
	if err != nil {
		return nil, err
	}
	slices.Sort(manifests)
	done := make([][]float64, len(x.tasks))
	for _, path := range manifests {
		// Whole-file read: a line holds a task's values, so its length
		// is the caller's chunk size, not ours to bound.
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("job: read manifest: %w", err)
		}
		fns := replay
		if filepath.Base(path) != own {
			fns = nil
		}
		linelog.Lines(raw, func(line []byte) {
			i, r, ok := foldManifestLine(done, x, line)
			for _, fn := range fns {
				fn(line, i, r, ok)
			}
		})
	}
	return done, nil
}

// foldManifestLine folds one manifest line into done and returns its
// entry and its task's position. Anything but a well-formed entry for a
// task of this spec — a tombstone, or a value with exactly the task's
// number of values — leaves done untouched and is not ok.
func foldManifestLine(done [][]float64, x TaskIndex, line []byte) (int, Result, bool) {
	e, task, ok := scanManifestLine(line)
	i, known := parseTask(x, task)
	if !ok || !known {
		return 0, Result{}, false // corrupt, or not one of the spec's tasks
	}
	t := x.tasks[i]
	switch {
	case !e.Dead && len(e.Values) != t.Hi-t.Lo:
		return 0, Result{}, false
	case e.Dead:
		done[i] = nil
	case done[i] == nil:
		done[i] = e.Values
	}
	return i, Result{Task: t, Values: e.Values, Elapsed: time.Duration(e.ElapsedMS) * time.Millisecond, Worker: e.Worker, Dead: e.Dead}, true
}

// readSpec reads dir's spec.json; through the registry it resolves the
// domain. Used by Load (merge/report without re-running).
func readSpec(dir string) (Spec, error) {
	raw, err := os.ReadFile(filepath.Join(dir, specFileName))
	if err != nil {
		return Spec{}, fmt.Errorf("job: not a checkpoint dir: %w", err)
	}
	sj, ok := decodeSpecJSON(raw)
	if !ok {
		return Spec{}, fmt.Errorf("job: corrupt %s in %s", specFileName, dir)
	}
	return specFromJSON(dir, sj)
}

// writeFileAtomic writes via a uniquely-named temp file in the same
// directory plus rename. The unique name matters: concurrently started
// shard processes race to write an identical spec.json, and a shared
// temp path would let one process rename the file away between
// another's write and rename. The file is fsynced before the rename
// and the directory after it, so the spec survives power loss, not
// just process crash.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("job: write %s: %w", path, err)
	}
	tmp := f.Name()
	n, werr := WrapWriter(path, f).Write(data)
	if werr == nil && n < len(data) {
		werr = io.ErrShortWrite
	}
	op := "write"
	if werr == nil {
		if werr = f.Sync(); werr != nil {
			op, n = "sync", len(data)
		}
	}
	cerr := f.Close()
	if werr == nil && cerr != nil {
		werr, op, n = cerr, "close", len(data)
	}
	if werr == nil {
		if werr = os.Chmod(tmp, 0o644); werr != nil {
			op, n = "chmod", len(data)
		}
	}
	if werr == nil {
		if werr = os.Rename(tmp, path); werr != nil {
			op, n = "rename", len(data)
		}
	}
	if werr == nil {
		if werr = linelog.SyncDir(filepath.Dir(path)); werr != nil {
			op, n = "sync dir of", len(data)
		}
	}
	if werr != nil {
		os.Remove(tmp)
		return &WriteError{Path: path, Off: int64(n), Op: op, Err: werr}
	}
	return nil
}
