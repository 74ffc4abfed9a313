package grid

// The quarantine journal's format, its typed write failure, a grant that
// writes nothing and an upload that is one write to the job's file. That
// every verdict and value survives a kill -9 — a restart on the same
// directory stands where the dead coordinator stood and finishes
// byte-identical to job.Run — is FuzzSchedule's (invariants 2, 4 and 8).

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/job"
)

// The record types only an older coordinator wrote (retiredRecord): the
// codec still reads and writes them, replay skips them.
const (
	walLease    = "lease"
	walHedge    = "hedge"
	walExpire   = "expire"
	walIngest   = "ingest"
	walPriority = "priority"
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
	if err := w.append(want[0], want[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.append(want[2]); err != nil {
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
	if err := w3.append(walRecord{T: walExpire, Job: "j", Task: "t1", Worker: "w1"}); err != nil {
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

// TestReplayedQuarantineLogged: a verdict the quarantine journal holds
// is named in the restarted coordinator's log, one record per verdict. A
// kill -9 between commit's fsync and settle's record leaves the journal
// as the verdict's only trace, so the restart is the one log that can
// say which worker stands banned.
func TestReplayedQuarantineLogged(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{T: walQuarantine, Worker: "byz"}, walRecord{T: walQuarantine, Worker: "liar"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, Logger: logs.logger()})
	coord.Close()
	for _, name := range []string{"byz", "liar"} {
		want := `msg="worker QUARANTINED" worker=` + name + " replayed=true\n"
		if n := strings.Count(logs.String(), want); n != 1 {
			t.Errorf("the restart logged %d records naming %s's verdict, want 1:\n%s", n, name, logs.String())
		}
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
	if err := w.append(walRecord{T: walLease, Job: "j", Task: "t1", Worker: "w1"}); err != nil {
		t.Fatal(err)
	}

	faults := chaos.NewFileFaults(1, 0, 1.0, walFileName) // every WAL write: ENOSPC
	restore := job.SetWriterSeam(faults.Wrap)
	err = w.append(walRecord{T: walIngest, Job: "j", Task: "t1", Worker: "w1"})
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
	if err := w.append(walRecord{T: walExpire, Job: "j", Task: "t1", Worker: "w1"}); err != nil {
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

// TestGrantWritesNothing: a lease grant, however many tasks it hands out,
// writes nothing to the job's file or the quarantine journal: a lease
// lives in memory only.
func TestGrantWritesNothing(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer coord.Close()
	spec := gossipSpec(t)
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	giveEvidence(t, coord, spec, id, "w1") // a sized grant, so the cap of 3 is what w1 gets
	var fw fileWrites
	restore := fw.install()
	lease, err := coord.Lease(context.Background(), id, "w1", 3)
	restore()
	if err != nil || len(lease.Tasks) != 3 {
		t.Fatalf("lease = %+v, %v; want 3 tasks", lease, err)
	}
	if n, q := fw.count("manifest-grid.jsonl"), fw.count(walFileName); n != 0 || q != 0 {
		t.Fatalf("a 3-task grant made %d writes to the job's file and %d to the quarantine journal, want none", n, q)
	}
}

// TestUploadJournalsOneWrite: a body of k fresh tasks is one durable
// append — its k value lines, each naming the worker, the ingest they are
// — and nothing reaches the quarantine journal.
func TestUploadJournalsOneWrite(t *testing.T) {
	dir := t.TempDir()
	coord := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer coord.Close()
	spec := gossipSpec(t)
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	giveEvidence(t, coord, spec, id, "w1")
	lease := leaseUpTo(t, coord, id, "w1", 5)
	if len(lease) != 5 {
		t.Fatalf("leased %+v, want 5 tasks", lease)
	}
	path := filepath.Join(dir, id, "manifest-grid.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fw fileWrites
	restore := fw.install()
	acks, err := coord.IngestResults(context.Background(), id, ResultsUpload{Worker: "w1", Results: results(lease, honestVals)})
	restore()
	if err != nil || len(acks) != 5 {
		t.Fatalf("upload: %v, %v", acks, err)
	}
	if n, q := fw.count("manifest-grid.jsonl"), fw.count(walFileName); n != 1 || q != 0 {
		t.Fatalf("a 5-task body made %d writes to the job's file and %d to the quarantine journal, want 1 and 0", n, q)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, lt := range lease {
		want = job.AppendLine(want, job.Result{Task: job.Task{Measure: lt.Measure, Lo: lt.Lo, Hi: lt.Hi},
			Values: honestVals(lt), Elapsed: 5 * time.Millisecond, Worker: "w1"})
	}
	if got := after[len(before):]; !bytes.Equal(got, want) {
		t.Fatalf("the upload appended\n%s\nwant its value lines\n%s", got, want)
	}
}
