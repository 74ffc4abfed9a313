package job

// Checkpoint writes fail like real disks fail: full (ENOSPC, nothing
// persisted) or torn (short write). These tests pin the contract that
// every such failure surfaces as a typed *WriteError carrying the
// path, offset and operation — and that a failed Record never poisons
// the checkpoint: the task simply re-runs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/pra"
)

// faultSpec is a four-point sweep, chunked so the first few tasks are
// cheap to Record by hand.
func faultSpec(t *testing.T) Spec {
	t.Helper()
	pts, cfg := tinySweep(pra.Domain())
	return Spec{Domain: pra.Domain(), Points: pts[:4], Cfg: cfg, Chunk: 2}
}

// TestCheckpointManifestDiskFullTyped: ENOSPC on the manifest append
// comes back as *WriteError{Op: "append"} with the manifest
// path and durable offset, the root cause unwrappable — and the
// checkpoint keeps working once space returns.
func TestCheckpointManifestDiskFullTyped(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	tasks := spec.Tasks()
	vals := func(task Task) []float64 {
		out := make([]float64, task.Hi-task.Lo)
		for i := range out {
			out[i] = float64(task.Lo + i)
		}
		return out
	}
	if err := cp.Record(tasks[0], vals(tasks[0]), 0); err != nil {
		t.Fatal(err)
	}

	faults := chaos.NewFileFaults(1, 0, 1.0, "manifest-grid") // every manifest write: ENOSPC
	restore := SetWriterSeam(faults.Wrap)
	err = cp.Record(tasks[1], vals(tasks[1]), 0)
	restore()
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Record under disk-full: err = %v, want *WriteError", err)
	}
	manifestPath := filepath.Join(dir, "manifest-grid.jsonl")
	if werr.Path != manifestPath || werr.Op != "append" || werr.Off <= 0 {
		t.Fatalf("WriteError = %+v, want manifest path, op \"append\", positive offset", werr)
	}
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ENOSPC via chaos.ErrInjected", err)
	}

	// The disk "recovers": the same task records cleanly, and a fresh
	// open sees both tasks exactly once.
	if err := cp.Record(tasks[1], vals(tasks[1]), 0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	cp2, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	done := cp2.Completed()
	if len(done) != 2 || done[tasks[0].ID()] == nil || done[tasks[1].ID()] == nil {
		t.Fatalf("completed after recovery = %v, want exactly tasks %s and %s", done, tasks[0].ID(), tasks[1].ID())
	}
}

// TestCheckpointManifestShortWriteTyped: a torn manifest append is a
// typed io.ErrShortWrite whose offset points past the persisted half,
// and the torn bytes are trimmed so the manifest stays line-clean.
func TestCheckpointManifestShortWriteTyped(t *testing.T) {
	dir := t.TempDir()
	spec := faultSpec(t)
	cp, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	tasks := spec.Tasks()

	faults := chaos.NewFileFaults(2, 1.0, 0, "manifest-grid") // every manifest write: torn
	restore := SetWriterSeam(faults.Wrap)
	err = cp.Record(tasks[0], []float64{1, 2}, 0)
	restore()
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Record under short write: err = %v, want *WriteError", err)
	}
	if werr.Op != "append" || werr.Off <= 0 {
		t.Fatalf("WriteError = %+v, want op \"append\" with the torn offset", werr)
	}
	if !errors.Is(err, io.ErrShortWrite) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want io.ErrShortWrite via chaos.ErrInjected", err)
	}

	// Truncate-back left a line-clean manifest: the retry lands whole,
	// and the file holds exactly one complete JSON line.
	if err := cp.Record(tasks[0], []float64{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest-grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 1 || !json.Valid(lines[0]) {
		t.Fatalf("manifest after torn write + retry:\n%s\nwant exactly one clean line", raw)
	}
	cp2, err := OpenCheckpoint(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if done := cp2.Completed(); len(done) != 1 || done[tasks[0].ID()] == nil {
		t.Fatalf("completed = %v, want exactly %s", done, tasks[0].ID())
	}
}

// TestCheckpointManifestFaultRetry covers the one file a Record or a
// tombstone writes: disk-full and torn appends of a value line and of
// a tombstone are typed with the manifest path and the offset of the
// first unwritten byte, leave the manifest line-clean, and the retry
// lands whole — with another goroutine's append landing in between.
func TestCheckpointManifestFaultRetry(t *testing.T) {
	for _, tc := range []struct {
		name        string
		short, fail float64
		cause       error
		tombstone   bool
	}{
		{"enospc/value", 0, 1, syscall.ENOSPC, false},
		{"enospc/tombstone", 0, 1, syscall.ENOSPC, true},
		{"short/value", 1, 0, io.ErrShortWrite, false},
		{"short/tombstone", 1, 0, io.ErrShortWrite, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := faultSpec(t)
			cp, err := OpenCheckpoint(dir, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer cp.Close()
			tasks := spec.Tasks()
			if err := cp.Record(tasks[0], []float64{1, 2}, 0); err != nil {
				t.Fatal(err)
			}
			manifestPath := filepath.Join(dir, "manifest-grid.jsonl")
			before, err := os.Stat(manifestPath)
			if err != nil {
				t.Fatal(err)
			}
			op := func() error { return cp.Record(tasks[1], []float64{3, 4}, 0) }
			if tc.tombstone {
				op = func() error { return cp.Append(AppendLine(nil, Result{Task: tasks[0], Dead: true}), true) }
			}

			restore := SetWriterSeam(chaos.NewFileFaults(4, tc.short, tc.fail, "manifest-grid").Wrap)
			err = op()
			restore()
			var werr *WriteError
			if !errors.As(err, &werr) {
				t.Fatalf("err = %v, want *WriteError", err)
			}
			if werr.Path != manifestPath || werr.Op != "append" {
				t.Fatalf("WriteError = %+v, want the manifest path and op \"append\"", werr)
			}
			if torn := werr.Off - before.Size(); (tc.short > 0) != (torn > 0) || torn < 0 {
				t.Fatalf("WriteError.Off = %d with %d bytes durable before the append", werr.Off, before.Size())
			}
			if !errors.Is(err, tc.cause) || !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("err = %v, want %v via chaos.ErrInjected", err, tc.cause)
			}

			// Another recorder gets in before the retry.
			other := make(chan error)
			go func() { other <- cp.Record(tasks[2], []float64{5, 6}, 0) }()
			if err := <-other; err != nil {
				t.Fatal(err)
			}
			if err := op(); err != nil {
				t.Fatalf("retry: %v", err)
			}

			raw, err := os.ReadFile(manifestPath)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
			if len(lines) != 3 || raw[len(raw)-1] != '\n' {
				t.Fatalf("manifest after fault + retry:\n%s\nwant three whole lines", raw)
			}
			for _, line := range lines {
				if !json.Valid(line) {
					t.Fatalf("manifest after fault + retry holds a torn line:\n%s", raw)
				}
			}
			done, err := loadCompleted(dir)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string][]float64{tasks[0].ID(): {1, 2}, tasks[1].ID(): {3, 4}, tasks[2].ID(): {5, 6}}
			if tc.tombstone {
				want = map[string][]float64{tasks[2].ID(): {5, 6}}
			}
			if !reflect.DeepEqual(done, want) {
				t.Fatalf("restored %v, want %v", done, want)
			}
		})
	}
}
