package grid

// Replay is the live transitions over restored values, so a coordinator
// killed after any call and restarted on what it left behind must stand
// where the dead one stood — in everything the journals own. These tests
// pin that, that the journals themselves are a pure function of the call
// sequence, and that no WAL a disk can hand back wedges a restart.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
)

// notDurable is what durableProjection leaves out, and why: the fields a
// restart is not meant to get back (DESIGN.md, "one rule").
var notDurable = []struct{ field, why string }{
	{"task deadline, hedgeDeadline, leasedAt; audit deadline, relaxAt", "a replayed lease is re-armed with a fresh TTL from the new coordinator's clock"},
	{"task recording", "an append in flight died with the process"},
	{"task tainted", "only steers the cache absorb scan; a restart re-feeds the cache from what stands"},
	{"audit auditor, second, secondVals, secondMS, giveUpAt", "an arbitration is not journalled: a restart re-opens the audit as a plain re-check (that it is open is compared)"},
	{"worker firstSeen, lastSeen", "wall-clock liveness of the dead process"},
	{"job next, scanned", "the grant cursor is a scan bound, re-derived by walking from 0"},
	{"job startedAt, restored, scores, changed, cache plumbing", "per process lifetime: ETA anchor, assembled result, wake-up channel, cache epochs"},
	{"values", "the manifest's, not the WAL's; pinned by TestBatchAppendCrashPoints and every CSV comparison"},
}

// durableProjection renders what the manifest and the WAL own of c's
// state: per task status, holder, racer, producer, verified and whether
// an audit is open; the job's counters; the quarantined set; every
// worker's score row.
func durableProjection(c *Coordinator, id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	var sb strings.Builder
	for _, st := range j.tasks {
		fmt.Fprintf(&sb, "%s status=%d holder=%q hedge=%q producer=%q verified=%v audit=%v\n",
			st.id, st.status, st.worker, st.hedgeWorker, st.producer, st.verified, st.audit != nil)
	}
	fmt.Fprintf(&sb, "done=%d audits=%d requeues=%d leasesGranted=%d weight=%d\n", j.done, j.audits, j.requeues, j.leasesGranted, j.weight)
	quarantined := make([]string, 0, len(c.quarantined))
	for name := range c.quarantined {
		quarantined = append(quarantined, name)
	}
	sort.Strings(quarantined)
	fmt.Fprintf(&sb, "quarantined=%v\n", quarantined)
	names := make([]string, 0, len(c.workers))
	for name, ws := range c.workers {
		// A row that only ever said hello (an empty grant, a duplicate)
		// holds nothing a journal owns.
		if ws.done+ws.failures > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ws := c.workers[name]
		fmt.Fprintf(&sb, "worker %s done=%d failures=%d latEWMA=%v failEWMA=%v\n", name, ws.done, ws.failures, ws.latEWMA, ws.failEWMA)
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

// restartOn opens a second coordinator on dir with live's options and
// clock, and registers the scenario's job.
func restartOn(t testing.TB, live *Coordinator, dir string, spec job.Spec) *Coordinator {
	t.Helper()
	opts := live.opts
	opts.Dir = dir
	c := NewCoordinator(opts)
	c.now = live.now
	if _, err := c.AddJob(spec); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestReplayEqualsLive: any WAL prefix replays to the live state at that
// point. After every coordinator call of the seeded scenario — honest,
// slow and lying workers; audits, hedges, expiries, a quarantine — a
// second coordinator opened on a crash copy of the directory shows the
// same durable projection as the live one.
func TestReplayEqualsLive(t *testing.T) {
	for _, nd := range notDurable {
		t.Logf("not compared: %s — %s", nd.field, nd.why)
	}
	ctx := context.Background()
	spec := scenarioSpec(t)
	calls, quarantines := 0, 0
	for seed := uint64(1); seed <= 16; seed++ {
		check := func(c *Coordinator, id string) {
			t.Helper()
			calls++
			c2 := restartOn(t, c, crashCopy(t, c.opts.Dir), spec)
			defer c2.Close()
			if live, replayed := durableProjection(c, id), durableProjection(c2, id); live != replayed {
				t.Fatalf("seed %d, call %d: a restart does not stand where the live coordinator does\nlive:\n%s\nreplayed:\n%s", seed, calls, live, replayed)
			}
		}
		out := scenario{seed: seed, afterCall: check,
			submit: func(c *Coordinator, id, worker string, rs []TaskResult) []string {
				// One body per upload, cut at random like the grouped side of
				// TestBatchIngestMatchesOneByOne, checked after each.
				cuts := rand.New(rand.NewPCG(seed, uint64(len(rs))))
				var acks []string
				for len(rs) > 0 {
					n := 1 + cuts.IntN(len(rs))
					got, err := c.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: rs[:n]})
					check(c, id)
					for i := 0; i < n; i++ {
						if err != nil {
							acks = append(acks, ackString(ResultAck{}, err))
						} else {
							acks = append(acks, ackString(got[i], nil))
						}
					}
					rs = rs[n:]
				}
				return acks
			}}.run(t)
		if strings.Contains(out.state, "quarantined=[liar]") {
			quarantines++
		}
	}
	if quarantines < 8 {
		t.Fatalf("the liar was quarantined in %d of 16 scenarios; too tame to pin the quarantine case", quarantines)
	}
	t.Logf("%d restarts compared", calls)
}

// TestJournalsDeterministic: the same calls under the same clock write
// the same bytes — WAL and manifests — run after run, through a
// quarantine that revokes leases and invalidates tasks across two jobs
// and an expiry that sweeps both.
func TestJournalsDeterministic(t *testing.T) {
	ctx := context.Background()
	specs := []job.Spec{gossipSpec(t), auditSpec(t, 12)}
	run := func() map[string][]byte {
		dir := t.TempDir()
		coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute, Hedge: true, maxLease: 8})
		now := time.Unix(1000, 0)
		coord.now = func() time.Time { return now }
		var ids []string
		for _, spec := range specs {
			id, err := coord.AddJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		upload := func(id, worker string, lts []LeaseTask) {
			if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: results(lts, honestVals)}); err != nil {
				t.Fatal(err)
			}
		}
		lease := func(id, worker string, n int) []LeaseTask {
			resp, err := coord.Lease(ctx, id, worker, n)
			if err != nil || len(resp.Tasks) != n {
				t.Fatalf("lease of %d to %s = %+v, %v", n, worker, resp, err)
			}
			return resp.Tasks
		}
		for _, id := range ids {
			upload(id, "bad", lease(id, "bad", 4)) // four done tasks a job to invalidate
			lease(id, "bad", 2)                    // and two leases to revoke
			upload(id, "good", lease(id, "good", 2))
			lease(id, "gone", 2) // never heard from again
		}
		now = now.Add(10 * time.Second)
		coord.Quarantine("bad")
		now = now.Add(2 * time.Minute) // gone's leases expire in both jobs
		for i := 0; i < 2; i++ {
			lease, err := coord.Lease(ctx, "", "good", 8)
			if err != nil {
				t.Fatal(err)
			}
			upload(lease.Job, "good", lease.Tasks)
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, rel := range append([]string{walFileName}, filepath.Join(ids[0], "manifest-grid.jsonl"), filepath.Join(ids[1], "manifest-grid.jsonl")) {
			data, err := os.ReadFile(filepath.Join(dir, rel))
			if err != nil {
				t.Fatal(err)
			}
			files[rel] = data
		}
		return files
	}
	first := run()
	wal := string(first[walFileName])
	for _, want := range []string{`"t":"quarantine"`, `"t":"expire"`} {
		if !strings.Contains(wal, want) {
			t.Fatalf("the run journalled no %s record:\n%s", want, wal)
		}
	}
	for rel, data := range first {
		if rel != walFileName && bytes.Count(data, []byte(`"dead":true`)) != 4 {
			t.Fatalf("%s holds %d tombstones, want the quarantined worker's 4:\n%s", rel, bytes.Count(data, []byte(`"dead":true`)), data)
		}
	}
	for i := 1; i < 20; i++ {
		for rel, data := range run() {
			if !bytes.Equal(data, first[rel]) {
				t.Fatalf("run %d wrote a different %s:\n%s\nthe first run wrote:\n%s", i, rel, data, first[rel])
			}
		}
	}
}

// walBytes encodes recs as a WAL file.
func walBytes(t testing.TB, recs []walRecord) []byte {
	t.Helper()
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(false, recs...); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzWALReplay hands a restart arbitrary bytes for a WAL, beside a real
// half-finished manifest. Whatever the WAL says, the restart must not
// panic, must come up consistent — done counts the done tasks, nothing
// pending hides behind the grant cursor, no lease is held by a
// quarantined worker — and honest workers must then finish the job
// byte-identical to job.Run: the manifest owns the values, so a WAL can
// cost re-runs, never results.
func FuzzWALReplay(f *testing.F) {
	ctx := context.Background()
	spec := scenarioSpec(f)
	want := csvOf(f, spec.Domain, wantScores(f, spec))
	// The scenario with true values, so its manifest holds what job.Run
	// computes (and the liar's off-by-ones).
	real := map[string][]float64{}
	if err := job.ExecTasks(ctx, spec, spec.Tasks(), job.ExecOptions{Workers: 1}, func(task job.Task, vals []float64, _ time.Duration) error {
		real[task.ID()] = vals // Workers: 1 — one sink call at a time
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	honest := func(lt LeaseTask) []float64 { return real[lt.Task] }

	// The directory a kill -9 leaves a third of the way into the scenario:
	// its manifest is the fixed half, its WAL the corpus — as it is, and
	// with records dropped, duplicated, reordered and re-attributed.
	var crashes []string
	snapshot := func(c *Coordinator, id string) { crashes = append(crashes, crashCopy(f, c.opts.Dir)) }
	scenario{seed: 3, honest: honest, afterCall: snapshot,
		submit: func(c *Coordinator, id, worker string, rs []TaskResult) []string {
			acks := make([]string, len(rs))
			for i, r := range rs {
				acks[i] = ackString(c.Ingest(ctx, id, ResultUpload{worker, r.Task, r.Values, r.ElapsedMS}))
				snapshot(c, id)
			}
			return acks
		}}.run(f)
	crash := crashes[len(crashes)/3]
	w, recs, _, err := openWAL(crash)
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	if err := os.Remove(filepath.Join(crash, walFileName)); err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	workers := []string{"good1", "good2", "good3", "liar", "slow", ""}
	for _, mutate := range []func(r walRecord) []walRecord{
		func(r walRecord) []walRecord { return []walRecord{r} },                       // as written
		func(r walRecord) []walRecord { return []walRecord{r}[:min(1, rng.IntN(4))] }, // one in four dropped
		func(r walRecord) []walRecord { return []walRecord{r, r}[:1+rng.IntN(2)] },    // one in two duplicated
		func(r walRecord) []walRecord { // re-attributed
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
	shuffled := append([]walRecord(nil), recs...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	f.Add(walBytes(f, shuffled))
	f.Add([]byte(`{"crc":1,"rec":{"t":"lea`))

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := crashCopy(t, crash)
		if err := os.WriteFile(filepath.Join(dir, walFileName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := scenarioOptions
		opts.Dir = dir
		coord := NewCoordinator(opts)
		defer coord.Close()
		now := time.Unix(5000, 0)
		coord.now = func() time.Time { return now }
		id, err := coord.AddJob(spec)
		if err != nil {
			t.Fatal(err)
		}

		coord.mu.Lock()
		j := coord.jobs[id]
		done := 0
		for _, st := range j.tasks {
			if st.status == taskDone {
				done++
			}
			if st.status == taskPending && st.idx < j.next {
				t.Errorf("task %s is pending behind the grant cursor (%d)", st.id, j.next)
			}
			if (st.status == taskDone) != (st.values != nil) {
				t.Errorf("task %s: status %d with values %v", st.id, st.status, st.values)
			}
		}
		if done != j.done {
			t.Errorf("done = %d, %d tasks are done", j.done, done)
		}
		for _, r := range j.revocations(func(w string) bool { return coord.quarantined[w] }) {
			t.Errorf("task %s is on lease to the quarantined %s", r.Task, r.Worker)
		}
		banned := coord.quarantined["honest-a"] || coord.quarantined["honest-b"]
		coord.mu.Unlock()
		if t.Failed() || banned {
			return // a WAL that bans the finishers proves nothing further
		}

		for step := 0; ; step++ {
			if step == 200 {
				t.Fatalf("honest workers did not finish the job in %d rounds: %+v", step, mustProgress(t, coord, id))
			}
			now = now.Add(31 * time.Second) // leases the WAL re-armed run out, audit exclusions relax
			complete := false
			for _, worker := range []string{"honest-a", "honest-b"} {
				lease, err := coord.Lease(ctx, id, worker, 4)
				if err != nil {
					t.Fatal(err)
				}
				complete = lease.Complete
				if len(lease.Tasks) > 0 {
					if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: worker, Results: results(lease.Tasks, honest)}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if complete {
				break
			}
		}
		scores, err := coord.WaitComplete(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if csvOf(t, spec.Domain, scores) != want {
			t.Fatal("the CSV after the restart is not byte-identical to job.Run")
		}
	})
}
