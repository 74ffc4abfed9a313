package grid

// The coordinator WAL contract: every scheduling decision survives a
// kill -9. A coordinator restarted over the same directory — without
// Close, without drain — restores exact task states, fair-share
// deficits, requeue counts and per-worker scores from the journal, and
// the finished sweep is byte-identical to a single-process job.Run.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dsa"
	"repro/internal/job"
)

// TestWALRoundTrip pins the on-disk format: append, close, reopen,
// same records back; torn tails truncated; corrupt lines skipped.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, skipped, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || skipped != 0 {
		t.Fatalf("fresh WAL replayed %d records, %d skipped", len(recs), skipped)
	}
	want := []walRecord{
		{T: walLease, Job: "j", Task: "t1", Worker: "w1"},
		{T: walIngest, Job: "j", Task: "t1", Worker: "w1", ElapsedMS: 42},
		{T: walQuarantine, Worker: "evil"},
	}
	if err := w.append(false, want[0], want[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.append(true, want[2]); err != nil { // verdict-grade: fsynced
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, skipped, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != len(want) {
		t.Fatalf("reopen: %d records (%d skipped), want %d", len(recs), skipped, len(want))
	}
	for i, r := range recs {
		if r != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
	w2.Close()

	// A torn final write (no newline) is truncated away on open; a
	// complete line with a bad CRC is skipped but appends stay safe.
	path := filepath.Join(dir, walFileName)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":12345,"rec":{"t":"lease","job":"j","task":"bogus"}}` + "\n") // wrong CRC
	f.WriteString(`{"crc":1,"rec":{"t":"lea`)                                          // torn tail
	f.Close()

	w3, recs, skipped, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) || skipped != 1 {
		t.Fatalf("after corruption: %d records (%d skipped), want %d (1 skipped)", len(recs), skipped, len(want))
	}
	if err := w3.append(false, walRecord{T: walExpire, Job: "j", Task: "t1", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	w3.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, intact) || bytes.Contains(after, []byte(`"t":"lea"`)) {
		t.Fatalf("torn tail not cleanly truncated before append:\n%s", after)
	}

	w4, recs, skipped, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w4.Close()
	if len(recs) != len(want)+1 || skipped != 1 {
		t.Fatalf("final reopen: %d records (%d skipped), want %d (1 skipped)", len(recs), skipped, len(want)+1)
	}
}

// TestWALWriteErrorTyped pins the failure surface: a disk-full or
// short write during append comes back as *job.WriteError carrying the
// WAL path, offset and operation, with the root cause unwrappable —
// and the torn bytes are trimmed so the journal stays appendable.
func TestWALWriteErrorTyped(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.append(false, walRecord{T: walLease, Job: "j", Task: "t1", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}

	faults := chaos.NewFileFaults(1, 0, 1.0, walFileName) // every WAL write: ENOSPC
	restore := job.SetWriterSeam(faults.Wrap)
	err = w.append(false, walRecord{T: walIngest, Job: "j", Task: "t1", Worker: "w1"})
	restore()
	var werr *job.WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("append under disk-full: err = %v, want *job.WriteError", err)
	}
	if werr.Path != filepath.Join(dir, walFileName) || werr.Op != "append" || werr.Off <= 0 {
		t.Fatalf("WriteError = %+v, want wal path, op \"append\", positive offset", werr)
	}
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("err = %v, want ENOSPC via chaos.ErrInjected", err)
	}

	// The journal is still healthy: the failed record never landed, the
	// next append does.
	if err := w.append(false, walRecord{T: walExpire, Job: "j", Task: "t1", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, skipped, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 0 {
		t.Fatalf("replay after failed append: %d records (%d skipped), want 2 clean", len(recs), skipped)
	}
	if recs[1].T != walExpire {
		t.Fatalf("surviving records = %+v, the ENOSPC'd ingest must not appear", recs)
	}
}

// TestGrantJournalsOneWrite: a lease grant reaches the WAL as one write
// however many tasks it hands out, and replays as one lease record per
// task, in grant order.
func TestGrantJournalsOneWrite(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer coord.Close()
	id, err := coord.AddJob(gossipSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int32
	restore := job.SetWriterSeam(func(path string, w io.Writer) io.Writer {
		if filepath.Base(path) == walFileName {
			writes.Add(1)
		}
		return w
	})
	lease, err := coord.Lease(context.Background(), id, "w1", 3)
	restore()
	if err != nil || len(lease.Tasks) != 3 {
		t.Fatalf("lease = %+v, %v; want 3 tasks", lease, err)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("a 3-task grant made %d WAL writes, want 1", n)
	}
	_, recs, skipped, err := openWAL(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("replay: %v (%d skipped)", err, skipped)
	}
	var leased []string
	for _, r := range recs {
		if r.T == walLease && r.Job == id && r.Worker == "w1" {
			leased = append(leased, r.Task)
		}
	}
	if len(leased) != 3 || leased[0] != lease.Tasks[0].Task || leased[1] != lease.Tasks[1].Task || leased[2] != lease.Tasks[2].Task {
		t.Fatalf("replayed lease records %v, want the granted %+v in order", leased, lease.Tasks)
	}
}

// TestCoordinatorCrashRecovery is the tentpole pin: a coordinator is
// abandoned mid-sweep (no Close, no drain — the WAL file is exactly
// what a kill -9 leaves) while a worker holds a live lease. The
// restarted coordinator must restore done/leased/pending task states,
// the fair-share deficit, and the dead worker's score row from the
// WAL, then finish the sweep byte-identical to job.Run — including the
// merged CSV.
func TestCoordinatorCrashRecovery(t *testing.T) {
	spec := gossipSpec(t)
	want := wantScores(t, spec)
	dir := t.TempDir()
	ctx := context.Background()

	coord1 := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Minute})
	id, err := coord1.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(coord1.Handler())
	// TasksPerLease 2, killed after upload 3: the worker dies holding a
	// live lease on its 4th task (computed, upload severed).
	kill := &killingTransport{killAfter: 3}
	err = Work(ctx, srv1.URL, id, WorkerOptions{
		Name: "first-life", Workers: 1, TasksPerLease: 2,
		Client: &http.Client{Transport: kill},
	})
	if err == nil {
		t.Fatal("worker should have died after 3 uploads")
	}
	srv1.Close()
	// Deliberately NO coord1.Close(): the process is gone, the WAL and
	// checkpoint directory are all that survive.

	coord2 := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: 250 * time.Millisecond})
	defer coord2.Close()
	id2, err := coord2.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("job ID changed across crash: %s vs %s", id, id2)
	}

	snap, err := coord2.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Done != 3 || snap.Leased != 1 || snap.Complete {
		t.Fatalf("restored progress = %+v, want 3 done + 1 re-armed lease", snap)
	}
	coord2.mu.Lock()
	j := coord2.jobs[id]
	if j.leasesGranted != 4 || j.requeues != 0 {
		t.Errorf("replayed deficit: leasesGranted %d requeues %d, want 4 and 0", j.leasesGranted, j.requeues)
	}
	for _, wv := range coord2.viewLocked().Workers {
		if wv.Name == "first-life" && (wv.Done != 3 || wv.Leased != 1) {
			t.Errorf("replayed worker score row = %+v, want done 3 with 1 still leased", wv)
		}
	}
	if coord2.workers["first-life"] == nil {
		t.Error("the replay left no score row for first-life")
	}
	coord2.mu.Unlock()

	// The dead worker's re-armed lease expires on coordinator 2's own
	// clock; a second-life worker finishes the sweep.
	srv2 := httptest.NewServer(coord2.Handler())
	defer srv2.Close()
	if err := Work(ctx, srv2.URL, id, WorkerOptions{Name: "second-life", Workers: 2, TasksPerLease: 2, Poll: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	got, err := coord2.WaitComplete(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("post-crash scores differ from single-process job.Run")
	}
	snap, err = coord2.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Requeues < 1 {
		t.Fatalf("the dead worker's re-armed lease should have expired and re-queued: %+v", snap)
	}

	var gotCSV, wantCSV bytes.Buffer
	if err := dsa.WriteCSV(&gotCSV, spec.Domain, got); err != nil {
		t.Fatal(err)
	}
	if err := dsa.WriteCSV(&wantCSV, spec.Domain, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
		t.Fatal("merged CSV after crash recovery is not byte-identical to job.Run's")
	}
}
