package grid

// Replay is the live transitions over each job's file, so a coordinator
// killed after any call and restarted on what it left behind must stand
// where the dead one stood — in everything the files own (FuzzSchedule's
// invariant 2 compares durableProjection) — and no scheduler lines a disk
// can hand back may wedge a restart (FuzzWALReplay).

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gossip"
	"repro/internal/job"
	"repro/internal/linelog"
)

// notDurable is what durableProjection leaves out, and why: the fields a
// restart is not meant to get back (DESIGN.md, "one rule").
var notDurable = []struct{ field, why string }{
	{"task status leased, a leased task's holder, deadline, leasedAt", "a lease is soft state: a restart starts every task not done pending"},
	{"task recording", "an append in flight died with the process"},
	{"task tainted", "only steers the cache absorb scan; a restart re-feeds the cache from what stands"},
	{"a done task's holder; audit relaxAt, second, secondVals, secondMS, giveUpAt", "a re-check and an arbitration are not journalled: a restart re-opens the audit as a plain re-check, relaxing a TTL on (that it is open is compared)"},
	{"job requeues, leasesGranted", "counters of one process: grants and expiries are not journalled, and the fair-share deficit starts at zero"},
	{"worker failures, failEWMA", "expiries are not journalled: a restart scores every worker's failures from zero"},
	{"worker firstSeen, lastSeen", "wall-clock liveness of the dead process"},
	{"worker latEWMA with several jobs", "registerLocked replays one job's file at a time, so the EWMA folds a worker's value lines in registration order, not in the order they happened"},
	{"job next, scanned", "the grant cursor is a scan bound, re-derived by walking from 0"},
	{"job startedAt, restored, scores, changed, cache plumbing, oldestLease, expireAt", "per process lifetime: ETA anchor, assembled result, wake-up channel, cache epochs, scan bounds"},
	{"values", "the job's file's value lines, not its scheduler lines; FuzzSchedule's invariant 3 compares them with the files' whole value lines"},
}

// durableProjection renders what the jobs' files and the quarantine
// journal own of c's state: per task whether it is done, its producer,
// verified and whether an audit is open; each job's done and audit
// counts; the quarantined set; every worker's count of tasks done, and
// with a single job its latency EWMA.
func durableProjection(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb strings.Builder
	for _, j := range c.jobsLocked() {
		for _, st := range j.tasks {
			fmt.Fprintf(&sb, "%s done=%v producer=%q verified=%v audit=%v\n",
				st.task.ID(), st.status == taskDone, st.producer, st.verified, st.audit != nil)
		}
		fmt.Fprintf(&sb, "%s done=%d audits=%d\n", j.id, j.done, j.audits)
	}
	quarantined := make([]string, 0, len(c.quarantined))
	for name := range c.quarantined {
		quarantined = append(quarantined, name)
	}
	sort.Strings(quarantined)
	fmt.Fprintf(&sb, "quarantined=%v\n", quarantined)
	names := make([]string, 0, len(c.workers))
	for name, ws := range c.workers {
		// A row that never had a task done (an empty grant, a duplicate, a
		// lease that ended) holds nothing a journal owns.
		if ws.done > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		fmt.Fprintf(&sb, "worker %s done=%d", name, ws.done)
		if len(c.jobs) == 1 {
			fmt.Fprintf(&sb, " latEWMA=%v", ws.latEWMA)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// crashCopy copies dir as a kill -9 would leave it: the files as they
// are, no Close, nothing flushed that was not already written.
func crashCopy(t testing.TB, dir string) string {
	t.Helper()
	out := t.TempDir()
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(out, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(out, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// walBytes encodes recs as scheduler lines.
func walBytes(t testing.TB, recs []walRecord) []byte {
	t.Helper()
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(recs...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzWALReplay hands a restart arbitrary bytes for the scheduler lines of
// a job's file, beside the value lines and tombstones a schedule left
// there a third of the way in — full audits, hedges, a liar and a silent
// worker. Whatever the scheduler lines say, the restart must not panic
// and must come up consistent (FuzzSchedule's invariant 1), and the honest
// workers must then finish the job byte-identical to job.Run (invariants
// 8 and 4): the value lines own the values, so scheduler lines can cost
// re-runs, never results.
func FuzzWALReplay(f *testing.F) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	f.Cleanup(func() { retryDelay = orig })
	sched := schedule(true, "hhls", 1)
	rng := rand.New(rand.NewPCG(3, 3))
	for range 120 {
		sched = append(sched, byte(rng.Uint32()))
	}
	var crash, rel string
	runWorld(f, sched, false, func(w *world) {
		if w.step == len(w.steps)/3 {
			crash, rel = crashCopy(f, w.dir), filepath.Join(w.ids[0], "manifest-grid.jsonl")
		}
	})
	data, err := os.ReadFile(filepath.Join(crash, rel))
	if err != nil {
		f.Fatal(err)
	}
	// The file's value lines and tombstones are kept, each after as many
	// scheduler lines as preceded it; the scheduler lines are the input.
	type valueLine struct {
		at   int
		line []byte
	}
	var values []valueLine
	var recs []walRecord
	linelog.Lines(data, func(line []byte) {
		if r, ok := decodeWALLine(line); ok {
			recs = append(recs, r)
		} else {
			values = append(values, valueLine{len(recs), append(slices.Clip(line), '\n')})
		}
	})
	file := func(lines []byte) []byte {
		var out []byte
		k := 0
		for n, line := range bytes.SplitAfter(lines, []byte("\n")) {
			for ; k < len(values) && values[k].at <= n; k++ {
				out = append(out, values[k].line...)
			}
			out = append(out, line...)
		}
		if k < len(values) && len(out) > 0 && out[len(out)-1] != '\n' {
			out = append(out, '\n')
		}
		for ; k < len(values); k++ {
			out = append(out, values[k].line...)
		}
		return out
	}
	// The scheduler lines as written, and with records dropped, duplicated,
	// re-attributed and reordered.
	workers := []string{"honest0", "honest1", "liar2", "silent3", ""}
	for _, mutate := range []func(r walRecord) []walRecord{
		func(r walRecord) []walRecord { return []walRecord{r} },
		func(r walRecord) []walRecord { return []walRecord{r}[:min(1, rng.IntN(4))] },
		func(r walRecord) []walRecord { return []walRecord{r, r}[:1+rng.IntN(2)] },
		func(r walRecord) []walRecord {
			r.Worker = workers[rng.IntN(len(workers))]
			return []walRecord{r}
		},
	} {
		var out []walRecord
		for _, r := range recs {
			out = append(out, mutate(r)...)
		}
		f.Add(walBytes(f, out))
	}
	rng.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
	f.Add(walBytes(f, recs))
	f.Add([]byte(`{"crc":1,"rec":{"t":"lea`))

	f.Fuzz(func(t *testing.T, lines []byte) {
		dir := crashCopy(t, crash)
		if err := os.WriteFile(filepath.Join(dir, rel), file(lines), 0o644); err != nil {
			t.Fatal(err)
		}
		w := newWorld(t, sched, false)
		defer w.close()
		w.open(dir)
		w.hold(&consistent)
		for _, wk := range w.workers {
			if wk.kind == kindHonest && !w.quarantined(wk.name) {
				w.finish()
				w.hold(&honestFinish, &csvMatchesRun)
				return
			}
		}
		// A quarantine journal that bans every finisher proves nothing further.
	})
}

// TestRestartReadsOneJob: what a restart reads does not grow with the
// jobs a coordinator ever ran. On histories of 1 and of 10 completed jobs,
// with one quarantine, a restart that registers the first job replays
// the quarantine journal's one verdict and that job's own file, line for
// line — the same count in both.
func TestRestartReadsOneJob(t *testing.T) {
	ctx := context.Background()
	all := gossip.Domain().Space().Enumerate()
	var replayed []string
	for _, jobs := range []int{1, 10} {
		dir := t.TempDir()
		var specs []job.Spec
		coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
		for i := range jobs {
			cfg := tinyGossipCfg()
			cfg.Seed = int64(i + 1)
			spec := job.Spec{Domain: gossip.Domain(), Points: all[:4], Cfg: cfg, Chunk: 2}
			id, err := coord.AddJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			for !mustProgress(t, coord, id).Complete {
				lease := leaseUpTo(t, coord, id, "w", 2)
				if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: "w", Results: results(lease, honestVals)}); err != nil {
					t.Fatal(err)
				}
			}
			specs = append(specs, spec)
		}
		quarantine(coord, "gone")
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}

		var logs logSink
		restarted := NewCoordinator(CoordinatorOptions{Dir: dir, Logger: logs.logger()})
		id, err := restarted.AddJob(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		var scrape bytes.Buffer
		restarted.Metrics().WritePrometheus(&scrape)
		restarted.Close()
		if !strings.Contains(scrape.String(), "\ngrid_wal_replayed_records 1\n") {
			t.Fatalf("%d jobs: the restart replayed other than the one quarantine:\n%s", jobs, scrape.String())
		}
		data, err := os.ReadFile(filepath.Join(dir, id, "manifest-grid.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(" replayed=%d", bytes.Count(data, []byte("\n")))
		registered := ""
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, `msg="job registered"`) {
				registered = line
			}
		}
		if !strings.HasSuffix(registered, want) {
			t.Fatalf("%d jobs: %q, want %s — the job's own lines", jobs, registered, want)
		}
		replayed = append(replayed, want)
	}
	if replayed[0] != replayed[1] {
		t.Fatalf("the same job replayed %s after 1 job and %s after 10", replayed[0], replayed[1])
	}
}

// TestRestoreAdoptsLocalShard: a value only a local shard's manifest
// holds is adopted into the job's file as a value line from nobody, once:
// a second restart replays it from the job's file like any other line,
// and the workers finish the rest byte-identical to job.Run.
func TestRestoreAdoptsLocalShard(t *testing.T) {
	spec := gossipSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	specRaw, err := job.EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := jobID(spec.Domain.Name(), specRaw)
	// Shard 0 of 2 runs locally into the job's directory and stops short.
	if _, err := job.Run(ctx, spec.Domain, spec.Points, spec.Cfg, job.Options{Dir: filepath.Join(dir, id), Chunk: spec.Chunk, Shards: 2}); err == nil {
		t.Fatal("a lone shard of two completed the sweep")
	}
	shard, err := os.ReadFile(filepath.Join(dir, id, "manifest-s0of2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	adopted := bytes.Count(shard, []byte("\n"))
	if adopted == 0 || adopted == len(spec.Tasks()) {
		t.Fatalf("the shard recorded %d of %d tasks", adopted, len(spec.Tasks()))
	}
	for life := range 2 {
		coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
		if _, err := coord.AddJob(spec); err != nil {
			t.Fatal(err)
		}
		snap := mustProgress(t, coord, id)
		coord.Close()
		data, err := os.ReadFile(filepath.Join(dir, id, "manifest-grid.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Done != adopted || bytes.Count(data, []byte("\n")) != adopted || bytes.Contains(data, []byte(`"worker"`)) {
			t.Fatalf("life %d: %d tasks restored, the job's file holds\n%s\nwant the shard's %d values, from nobody, once", life, snap.Done, data, adopted)
		}
	}
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	defer coord.Close()
	if _, err := coord.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	if err := Work(ctx, srv.URL, id, WorkerOptions{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	scores, err := coord.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if csvOf(t, spec.Domain, scores) != csvOf(t, spec.Domain, wantScores(t, spec)) {
		t.Fatal("the job's CSV is not job.Run's")
	}
}

// TestRestartAuditsAsLive: under auditing, a value from nobody — adopted
// from a local shard's manifest, or served by the score cache — is
// selected for an audit like any other value on record, live, and a
// restart on what the live process left must stand where it stood
// (FuzzSchedule's invariant 2): the same audits open, no more. Honest
// workers then verify them and the job completes as job.Run, which at
// AuditRate 1 recomputes every task, the cache-served ones too: the cache
// saves grid compute only on tasks no audit selects.
func TestRestartAuditsAsLive(t *testing.T) {
	spec := gossipSpec(t)
	ctx := context.Background()
	dir := t.TempDir()
	specRaw, err := job.EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := jobID(spec.Domain.Name(), specRaw)
	// Shard 0 of 2 leaves its values in the job's directory; a whole run
	// fills the cache with every score.
	if _, err := job.Run(ctx, spec.Domain, spec.Points, spec.Cfg, job.Options{Dir: filepath.Join(dir, id), Chunk: spec.Chunk, Shards: 2}); err == nil {
		t.Fatal("a lone shard of two completed the sweep")
	}
	store, err := cache.Open(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	want, err := job.Run(ctx, spec.Domain, spec.Points, spec.Cfg, job.Options{Chunk: spec.Chunk, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	opts := CoordinatorOptions{Dir: dir, Cache: store, AuditRate: 1, LeaseTTL: time.Minute}
	var (
		lives  []string
		snap   ProgressSnapshot
		cached int // tasks the cache served the live process
	)
	for life := range 2 {
		coord := NewCoordinator(opts)
		if _, err := coord.AddJob(spec); err != nil {
			t.Fatal(err)
		}
		snap = mustProgress(t, coord, id)
		lives = append(lives, durableProjection(coord))
		var scrape bytes.Buffer
		coord.Metrics().WritePrometheus(&scrape)
		coord.Close()
		if opened := fmt.Sprintf("\ngrid_audits_opened_total %d\n", snap.Total); !strings.Contains(scrape.String(), opened) {
			t.Fatalf("life %d: /metrics does not count %d audits opened:\n%s", life, snap.Total, scrape.String())
		}
		if life == 0 {
			if cached = snap.CacheTasks; cached == 0 || cached == snap.Total {
				t.Fatalf("the cache served %d of %d tasks, want the ones the shard left", cached, snap.Total)
			}
		}
		if snap.Done != snap.Total || snap.Audits != snap.Total {
			t.Fatalf("life %d: %d of %d tasks done, %d audits open, want every task done and on audit", life, snap.Done, snap.Total, snap.Audits)
		}
	}
	if lives[0] != lives[1] {
		t.Fatalf("the restart stands elsewhere than the live process:\n%s\nwant\n%s", lives[1], lives[0])
	}
	coord := NewCoordinator(opts)
	defer coord.Close()
	if _, err := coord.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	if err := Work(ctx, srv.URL, id, WorkerOptions{Name: "w"}); err != nil {
		t.Fatal(err)
	}
	scores, err := coord.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if csvOf(t, spec.Domain, scores) != csvOf(t, spec.Domain, want) {
		t.Fatal("the job's CSV is not job.Run's")
	}
	var scrape bytes.Buffer
	coord.Metrics().WritePrometheus(&scrape)
	if passed := fmt.Sprintf("\ngrid_audits_passed_total %d\n", snap.Total); !strings.Contains(scrape.String(), passed) {
		t.Fatalf("the worker did not re-check all %d tasks, %d of them cache-served:\n%s", snap.Total, cached, scrape.String())
	}
}
