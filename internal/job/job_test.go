package job

// The engine's own contracts: task enumeration, concurrent shards,
// cancellation and what a checkpoint directory refuses. That any domain's
// sweep is invariant under chunking, sharding, resuming and caching is a
// law of the dsa conformance suite, which runs it through Run on every
// domain.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/gossip"
	"repro/internal/pra"
)

// tinySweep strides d's space down to about 16 points under a config
// small enough that any domain scores them in a blink.
func tinySweep(d dsa.Domain) ([]core.Point, dsa.Config) {
	return dsa.StridePoints(d, max(d.Space().Size()/16, 1)),
		dsa.Config{Peers: 8, Rounds: 40, PerfRuns: 1, EncounterRuns: 1, Opponents: 4, Seed: 7}
}

// mustRun runs d's tiny sweep.
func mustRun(t *testing.T, d dsa.Domain, opts Options) *dsa.Scores {
	t.Helper()
	pts, cfg := tinySweep(d)
	s, err := Run(context.Background(), d, pts, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTaskEnumeration(t *testing.T) {
	pts, cfg := tinySweep(pra.Domain())
	spec := Spec{Domain: pra.Domain(), Points: pts, Cfg: cfg, Chunk: 4}
	tasks := spec.Tasks()
	perMeasure := (len(spec.Points) + 3) / 4
	measures := spec.Domain.Measures()
	if len(tasks) != len(measures)*perMeasure {
		t.Fatalf("tasks = %d, want %d", len(tasks), len(measures)*perMeasure)
	}
	// Each measure's ranges must tile [0, len) exactly, in order.
	next := map[string]int{}
	seen := map[string]bool{}
	for _, task := range tasks {
		if task.Lo != next[task.Measure] {
			t.Fatalf("task %s starts at %d, want %d", task.ID(), task.Lo, next[task.Measure])
		}
		if task.Hi <= task.Lo || task.Hi > len(spec.Points) {
			t.Fatalf("task %s has bad range", task.ID())
		}
		if seen[task.ID()] {
			t.Fatalf("duplicate task ID %s", task.ID())
		}
		seen[task.ID()] = true
		next[task.Measure] = task.Hi
	}
	for _, m := range measures {
		if next[m] != len(spec.Points) {
			t.Fatalf("%s tasks cover %d of %d points", m, next[m], len(spec.Points))
		}
	}
}

// TestLastFinishingShardAssembles pins the documented concurrent-shard
// contract: a shard that finishes after the others picks their
// journalled tasks up from the shared dir and assembles the full
// result, even though they completed only after it had opened the
// checkpoint. Shard 1 runs to completion from inside shard 0's first
// progress callback, i.e. strictly mid-run.
func TestLastFinishingShardAssembles(t *testing.T) {
	d := pra.Domain()
	pts, cfg := tinySweep(d)
	want := mustRun(t, d, Options{Chunk: 3})

	dir := t.TempDir()
	ranOther := false
	got, err := Run(context.Background(), d, pts, cfg, Options{
		Dir: dir, Chunk: 3, Shards: 2, ShardIndex: 0, Workers: 1,
		Progress: func(Progress) {
			if ranOther {
				return
			}
			ranOther = true
			_, err := Run(context.Background(), d, pts, cfg, Options{Dir: dir, Chunk: 3, Shards: 2, ShardIndex: 1})
			if !errors.Is(err, ErrIncomplete) {
				t.Errorf("inner shard: err = %v, want ErrIncomplete", err)
			}
		},
	})
	if err != nil {
		t.Fatalf("outer shard should assemble the full result, got %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("late-assembled sharded run does not match unsharded run")
	}
}

func TestPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fresh := 0
	pts, cfg := tinySweep(pra.Domain())
	_, err := Run(ctx, pra.Domain(), pts, cfg, Options{Progress: func(p Progress) { fresh = p.FreshTasks }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fresh != 0 {
		t.Fatalf("%d tasks ran under a cancelled context", fresh)
	}
}

func TestSpecMismatchRejected(t *testing.T) {
	d := pra.Domain()
	pts, cfg := tinySweep(d)
	dir := t.TempDir()
	mustRun(t, d, Options{Dir: dir})

	other := cfg
	other.Seed = 99
	if _, err := Run(context.Background(), d, pts, other, Options{Dir: dir}); err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("different seed accepted against existing checkpoint (err = %v)", err)
	}
	if _, err := Run(context.Background(), d, pts[:5], cfg, Options{Dir: dir}); err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("different point set accepted against existing checkpoint (err = %v)", err)
	}
}

// TestCrossDomainCheckpointRejected: a gossip run pointed at a
// swarming checkpoint directory (or vice versa) must fail loudly, not
// mis-merge two domains' task files.
func TestCrossDomainCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	mustRun(t, pra.Domain(), Options{Dir: dir})

	pts, cfg := tinySweep(gossip.Domain())
	_, err := Run(context.Background(), gossip.Domain(), pts, cfg, Options{Dir: dir})
	if err == nil || errors.Is(err, ErrIncomplete) {
		t.Fatalf("gossip run accepted a swarming checkpoint (err = %v)", err)
	}
	if !strings.Contains(err.Error(), "domain") {
		t.Fatalf("rejection should name the domain mismatch, got: %v", err)
	}
}

// TestV1CheckpointRejected: a checkpoint directory written by the
// pre-Domain engine (spec version 1, keyed by pra.ScoreKind and
// protocol IDs) must be detected and rejected with a helpful error —
// resuming into it or loading it could otherwise silently mis-merge.
func TestV1CheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	v1 := map[string]any{
		"version": 1,
		"config": map[string]any{
			"peers": 10, "rounds": 30, "perf_runs": 1, "encounter_runs": 1,
			"opponents": 4, "seed": 7, "churn": 0.0,
		},
		"chunk":        32,
		"protocol_ids": []int{0, 200, 400},
	}
	raw, err := json.Marshal(v1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	checkErr := func(what string, err error) {
		t.Helper()
		if err == nil || errors.Is(err, ErrIncomplete) {
			t.Fatalf("%s accepted a v1 checkpoint (err = %v)", what, err)
		}
		for _, needle := range []string{"version 1", "re-run"} {
			if !strings.Contains(err.Error(), needle) {
				t.Fatalf("%s rejection should mention %q, got: %v", what, needle, err)
			}
		}
	}
	pts, cfg := tinySweep(pra.Domain())
	_, err = Run(context.Background(), pra.Domain(), pts, cfg, Options{Dir: dir})
	checkErr("Run", err)
	_, err = Load(dir)
	checkErr("Load", err)
}

func TestTornManifestLineIsReRun(t *testing.T) {
	d := pra.Domain()
	dir := t.TempDir()
	want := mustRun(t, d, Options{Dir: dir})

	// Simulate a crash mid-append: garbage tail on the manifest.
	matches, err := filepath.Glob(filepath.Join(dir, "manifest-*.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("manifest glob: %v %v", matches, err)
	}
	f, err := os.OpenFile(matches[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"task":"robustness-000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("torn manifest line changed the loaded scores")
	}
	// Resuming over the torn journal still assembles the same result.
	resumed := mustRun(t, d, Options{Dir: dir})
	if !reflect.DeepEqual(resumed, want) {
		t.Fatal("resume over torn manifest does not match")
	}
}
