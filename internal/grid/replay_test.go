package grid

// Replay is the live transitions over restored values, so a coordinator
// killed after any call and restarted on what it left behind must stand
// where the dead one stood — in everything the journals own (FuzzSchedule's
// invariant 2 compares durableProjection) — and no WAL a disk can hand back
// may wedge a restart (FuzzWALReplay).

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// notDurable is what durableProjection leaves out, and why: the fields a
// restart is not meant to get back (DESIGN.md, "one rule").
var notDurable = []struct{ field, why string }{
	{"task deadline, leasedAt; audit relaxAt", "a replayed lease is re-armed with a fresh TTL from the new coordinator's clock"},
	{"task recording", "an append in flight died with the process"},
	{"task tainted", "only steers the cache absorb scan; a restart re-feeds the cache from what stands"},
	{"a done task's holder; audit second, secondVals, secondMS, giveUpAt", "a re-check and an arbitration are not journalled: a restart re-opens the audit as a plain re-check (that it is open is compared)"},
	{"worker firstSeen, lastSeen", "wall-clock liveness of the dead process"},
	{"worker latEWMA, failEWMA with several jobs", "registerLocked replays one job's records at a time, so the EWMAs fold a worker's outcomes in registration order, not in the order they happened (ingest A, expire B, ingest A: 0.21 live, 0.3 replayed); journalling them is ROADMAP item 10's"},
	{"job next, scanned", "the grant cursor is a scan bound, re-derived by walking from 0"},
	{"job startedAt, restored, scores, changed, cache plumbing", "per process lifetime: ETA anchor, assembled result, wake-up channel, cache epochs"},
	{"values", "the manifest's, not the WAL's; FuzzSchedule's invariant 3 compares them with the manifests' whole lines"},
}

// durableProjection renders what the manifests and the WAL own of c's
// state: per task status, a leased task's holder, producer, verified and
// whether an audit is open; each job's counters; the quarantined set;
// every worker's counts, and with a single job its EWMAs.
func durableProjection(c *Coordinator) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb strings.Builder
	for _, j := range c.jobsLocked() {
		for _, st := range j.tasks {
			holder := ""
			if st.status == taskLeased {
				holder = st.worker
			}
			fmt.Fprintf(&sb, "%s status=%d holder=%q producer=%q verified=%v audit=%v\n",
				st.id, st.status, holder, st.producer, st.verified, st.audit != nil)
		}
		fmt.Fprintf(&sb, "%s done=%d audits=%d requeues=%d leasesGranted=%d weight=%d\n", j.id, j.done, j.audits, j.requeues, j.leasesGranted, j.weight)
	}
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
		fmt.Fprintf(&sb, "worker %s done=%d failures=%d", name, ws.done, ws.failures)
		if len(c.jobs) == 1 {
			fmt.Fprintf(&sb, " latEWMA=%v failEWMA=%v", ws.latEWMA, ws.failEWMA)
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

// FuzzWALReplay hands a restart arbitrary bytes for a WAL, beside the
// manifest a schedule left a third of the way in — full audits, hedges, a
// liar and a silent worker. Whatever the WAL says, the restart must not
// panic and must come up consistent (FuzzSchedule's invariant 1), and the
// honest workers must then finish the job byte-identical to job.Run
// (invariants 8 and 4): the manifest owns the values, so a WAL can cost
// re-runs, never results.
func FuzzWALReplay(f *testing.F) {
	orig := retryDelay
	retryDelay = func(int) time.Duration { return 0 }
	f.Cleanup(func() { retryDelay = orig })
	sched := schedule(true, true, "hhls", 1)
	rng := rand.New(rand.NewPCG(3, 3))
	for range 120 {
		sched = append(sched, byte(rng.Uint32()))
	}
	var crash string
	runWorld(f, sched, false, func(w *world) {
		if w.step == len(w.steps)/3 {
			crash = crashCopy(f, w.dir)
		}
	})
	w, recs, _, err := openWAL(crash)
	if err != nil {
		f.Fatal(err)
	}
	w.Close()
	if err := os.Remove(filepath.Join(crash, walFileName)); err != nil {
		f.Fatal(err)
	}
	// The WAL as written, and with records dropped, duplicated, re-attributed
	// and reordered.
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

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := crashCopy(t, crash)
		if err := os.WriteFile(filepath.Join(dir, walFileName), wal, 0o644); err != nil {
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
		// A WAL that bans every finisher proves nothing further.
	})
}
