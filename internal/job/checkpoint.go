package job

import (
	"encoding/json"
	"fmt"
	"io"
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

// EncodeSpec serialises a Spec in the checkpoint spec wire format (the
// bytes of spec.json). The grid coordinator ships this to workers so
// lease execution and checkpoint resume share one spec codec.
func EncodeSpec(s Spec) ([]byte, error) {
	sj, err := specToJSON(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sj)
}

// DecodeSpec parses an EncodeSpec payload back into a Spec. The domain
// is resolved through the dsa registry, so the calling program must
// import the domain's package.
func DecodeSpec(raw []byte) (Spec, error) {
	var sj specJSON
	if err := json.Unmarshal(raw, &sj); err != nil {
		return Spec{}, fmt.Errorf("job: corrupt spec payload: %w", err)
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
func decodeManifestLine(line []byte) (e manifestEntry, ok bool) {
	o := jsonline.NewObject(line)
	for o.Next() {
		switch string(o.Key()) {
		case "task":
			e.Task = o.String()
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
	return e, o.End()
}

// Checkpoint is one process's open handle on a checkpoint directory.
type Checkpoint struct {
	manifest  *linelog.Log
	completed map[string][]float64 // restored at open
}

// openCheckpoint prepares dir for (spec, shard shardIndex of shards):
// it creates the directory, writes or verifies spec.json, restores
// every completed task from existing manifests, and opens this shard's
// manifest for appending.
func openCheckpoint(dir string, spec Spec, shards, shardIndex int) (*Checkpoint, error) {
	return openCheckpointNamed(dir, spec, fmt.Sprintf("manifest-s%dof%d.jsonl", shardIndex, shards))
}

// openCheckpointNamed is openCheckpoint with an explicit manifest file
// name (every writer appends to its own manifest; loading merges all
// manifest-*.jsonl present) and replay (OpenCheckpoint).
func openCheckpointNamed(dir string, spec Spec, manifestName string, replay ...func(line []byte, r Result, ok bool)) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: checkpoint dir: %w", err)
	}
	want, err := specToJSON(spec)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(dir, specFileName)
	if raw, err := os.ReadFile(specPath); err == nil {
		var have specJSON
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("job: corrupt %s: %w", specPath, err)
		}
		switch {
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
		raw, err := json.Marshal(want)
		if err != nil {
			return nil, fmt.Errorf("job: checkpoint spec: %w", err)
		}
		if err := writeFileAtomic(specPath, raw); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("job: checkpoint spec: %w", err)
	}

	completed, err := readCompleted(dir, spec, manifestName, replay...)
	if err != nil {
		return nil, err
	}
	manifest, err := linelog.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("job: open manifest: %w", err)
	}
	return &Checkpoint{manifest: manifest, completed: completed}, nil
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
// restore's one read of it, with ok set and r its entry for a value or
// tombstone of one of spec's tasks; any other line — the caller's own
// record, or a corrupt one — is not ok.
func OpenCheckpoint(dir string, spec Spec, replay ...func(line []byte, r Result, ok bool)) (*Checkpoint, error) {
	return openCheckpointNamed(dir, spec, "manifest-grid.jsonl", replay...)
}

// Completed returns the task-ID → values map restored from the
// directory's manifests at open time. The caller takes ownership.
func (c *Checkpoint) Completed() map[string][]float64 { return c.completed }

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

// readCompleted merges every manifest in dir into task-ID → values.
// Lines apply in order: the first live entry of a task wins (a
// re-recorded task carries the same values by determinism), a tombstone
// cancels what precedes it. Lines that are corrupt, name no task or are
// inconsistent with the spec's task list are skipped — the engine just
// re-runs those tasks — so a crash mid-write can never corrupt a resumed
// sweep. replay sees the lines of the manifest named own (OpenCheckpoint).
func readCompleted(dir string, spec Spec, own string, replay ...func(line []byte, r Result, ok bool)) (map[string][]float64, error) {
	valid := make(map[string]Task)
	for _, t := range spec.Tasks() {
		valid[t.ID()] = t
	}
	manifests, err := filepath.Glob(filepath.Join(dir, "manifest-*.jsonl"))
	if err != nil {
		return nil, err
	}
	slices.Sort(manifests)
	out := make(map[string][]float64)
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
			r, ok := applyManifestLine(out, valid, line)
			for _, fn := range fns {
				fn(line, r, ok)
			}
		})
	}
	return out, nil
}

// applyManifestLine folds one manifest line into out and returns its
// entry. Anything but a well-formed entry for a task of this spec — a
// tombstone, or a value with exactly the task's number of values — leaves
// out untouched and is not ok.
func applyManifestLine(out map[string][]float64, valid map[string]Task, line []byte) (Result, bool) {
	e, ok := decodeManifestLine(line)
	t, known := valid[e.Task]
	switch {
	case !ok || !known || !e.Dead && len(e.Values) != t.Hi-t.Lo:
		return Result{}, false // corrupt, or not one of the spec's tasks
	case e.Dead:
		delete(out, e.Task)
	case out[e.Task] == nil:
		out[e.Task] = e.Values
	}
	return Result{Task: t, Values: e.Values, Elapsed: time.Duration(e.ElapsedMS) * time.Millisecond, Worker: e.Worker, Dead: e.Dead}, true
}

// loadCheckpoint reads dir without a target spec: the spec (and through
// the registry, the domain) comes from spec.json. Used by Load
// (merge/report without re-running).
func loadCheckpoint(dir string) (Spec, map[string][]float64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, specFileName))
	if err != nil {
		return Spec{}, nil, fmt.Errorf("job: not a checkpoint dir: %w", err)
	}
	var sj specJSON
	if err := json.Unmarshal(raw, &sj); err != nil {
		return Spec{}, nil, fmt.Errorf("job: corrupt %s: %w", specFileName, err)
	}
	spec, err := specFromJSON(dir, sj)
	if err != nil {
		return Spec{}, nil, err
	}
	completed, err := readCompleted(dir, spec, "")
	if err != nil {
		return Spec{}, nil, err
	}
	return spec, completed, nil
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
