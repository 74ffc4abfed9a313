package grid

// The WAL line codec against encoding/json, the oracle: what the old
// reflection codec read and wrote (json.Unmarshal of the envelope, a CRC
// over its raw rec, json.Unmarshal of the record; json.Marshal of both)
// is what decodeWALLine and appendWALLine must read and write.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
)

// oracleWALLine is the old decoder.
func oracleWALLine(line []byte) (walRecord, bool) {
	var l struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	var r walRecord
	if json.Unmarshal(line, &l) != nil || crc32.ChecksumIEEE(l.Rec) != l.CRC || json.Unmarshal(l.Rec, &r) != nil {
		return walRecord{}, false
	}
	return r, true
}

// oracleWALWrite is the old writer's line, newline included.
func oracleWALWrite(t *testing.T, r walRecord) []byte {
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}{crc32.ChecksumIEEE(raw), raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// refusedWALForm names why the codec may refuse a line the oracle takes:
// a null where a value was due, or a key that matches an envelope or
// record field only case-insensitively. Anything else is a bug.
func refusedWALForm(line []byte) string {
	if hasNull(line) {
		return "null in place of a value"
	}
	var l map[string]json.RawMessage
	json.Unmarshal(line, &l)
	var rec map[string]json.RawMessage
	json.Unmarshal(l["rec"], &rec)
	if foldedKey(l, walLineKeys) || foldedKey(rec, walRecordKeys) {
		return "case-folded key"
	}
	return ""
}

// walLineOf frames rec with its right CRC between prefix (which opens
// the envelope up to the rec value) and suffix.
func walLineOf(prefix, rec, suffix string) []byte {
	return []byte(prefix + rec + `,"crc":` + strconv.FormatUint(uint64(crc32.ChecksumIEEE([]byte(rec))), 10) + suffix)
}

// walRefusedForms are the lines the oracle reads and the codec refuses,
// one per named form.
var walRefusedForms = []struct {
	form string
	line []byte
}{
	{"null in place of a value", walLineOf(`{"rec":`, `null`, `}`)},
	{"null in place of a value", walLineOf(`{"rec":`, `{"t":"lease","job":null}`, `}`)},
	{"null in place of a value", walLineOf(`{"rec":`, `{"t":"lease"}`, `,"crc":null}`)},
	{"case-folded key", walLineOf(`{"REC":`, `{"t":"lease"}`, `}`)},
	{"case-folded key", walLineOf(`{"rec":`, `{"T":"lease","Job":"j"}`, `}`)},
}

// TestWALRefusedForms lists what the codec refuses that encoding/json
// would read.
func TestWALRefusedForms(t *testing.T) {
	for _, row := range walRefusedForms {
		if _, ok := oracleWALLine(row.line); !ok {
			t.Errorf("the oracle refuses %s", row.line)
		}
		if r, ok := decodeWALLine(row.line); ok {
			t.Errorf("the codec reads %s as %+v", row.line, r)
		}
		if got := refusedWALForm(row.line); got != row.form {
			t.Errorf("%s is named %q, want %q", row.line, got, row.form)
		}
	}
}

// hasNull reports whether data holds a null token outside a string.
func hasNull(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
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

// foldedKey reports whether m has a key that equals one of keys only
// case-insensitively.
func foldedKey(m map[string]json.RawMessage, keys []string) bool {
	for k := range m {
		for _, want := range keys {
			if k != want && strings.EqualFold(k, want) {
				return true
			}
		}
	}
	return false
}

// parentWAL is what testdata/parent.wal holds: these records written by
// the reflection codec, the first five in one plain append and the rest
// in one durable one. The priority line also held a weight, a key no
// record has now: it reads as the retired record below, CRC-checked.
var parentWAL = []walRecord{
	{T: walLease, Job: "gossip-11d6ed87d6dc", Task: "coverage-00000-00001", Worker: "plain"},
	{T: walIngest, Job: "j", Task: "t", Worker: `quote"back\slash`, ElapsedMS: 42},
	{T: walHedge, Job: "j", Task: "t", Worker: "<html>&amp;"},
	{T: walExpire, Job: "j", Task: "t", Worker: "ctl\x00\x01\b\f\n\r\t\x1f\x7f"},
	{T: walVerify, Job: "j", Task: "t", Worker: "sep\u2028par\u2029"},
	{T: walQuarantine, Worker: "bad\xffutf8\xc3"},
	{T: walPriority, Job: "jöb-名前"},
	{T: walIngest, Job: "j", Task: "t", Worker: "w", ElapsedMS: -5},
}

// validUTF8 is s as a JSON round trip leaves it: each invalid byte U+FFFD.
func validUTF8(r walRecord) walRecord {
	for _, s := range []*string{&r.T, &r.Job, &r.Task, &r.Worker} {
		*s = string([]rune(*s))
	}
	return r
}

// TestParentWAL: a WAL the reflection codec wrote replays to the records
// it was given, and the hand codec writes it again byte for byte — but
// the retired priority line, which it reads without its weight.
func TestParentWAL(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), want, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, skipped, err := openWAL(dir)
	if err != nil || skipped != 0 || len(recs) != len(parentWAL) {
		t.Fatalf("replay: %d records, %d skipped, %v", len(recs), skipped, err)
	}
	w.Close()
	var got []byte
	lines := bytes.SplitAfter(want, []byte("\n"))
	for i, r := range parentWAL {
		if recs[i] != validUTF8(r) {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], validUTF8(r))
		}
		if r.T == walPriority {
			if !retiredRecord(recs[i].T) {
				t.Errorf("record %d, a job priority, is not a retired record", i)
			}
			got = append(got, lines[i]...)
			continue
		}
		got = appendWALLine(got, r)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the hand codec writes\n%s\nthe reflection codec wrote\n%s", got, want)
	}
}

// TestParentDirectory: a checkpoint directory the previous coordinator
// left mid-job — two workers, full audits, one quarantine, its leases and
// ingests still in coordinator.wal — opens. The quarantine stands; the job
// records of the quarantine journal are counted in one log line and not
// replayed; the job restores from its manifest alone, values with no
// producer on record; and honest workers then finish it byte-identical to
// job.Run.
func TestParentDirectory(t *testing.T) {
	dir := crashCopy(t, filepath.Join("testdata", "parent-dir"))
	var logs logSink
	coord := NewCoordinator(CoordinatorOptions{Dir: dir, LeaseTTL: time.Second, AuditRate: 1, Logger: logs.logger()})
	defer coord.Close()
	spec := scenarioSpec(t)
	id, err := coord.AddJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := coord.Lease(ctx, id, "w1", 1); !errors.Is(err, errQuarantined) {
		t.Fatalf("lease to the quarantined w1: %v, want it refused", err)
	}
	var legacy []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "older coordinator") {
			legacy = append(legacy, line)
		}
	}
	if len(legacy) != 1 || !strings.Contains(legacy[0], "records=128") {
		t.Fatalf("the older coordinator's job records were logged as %q, want one line counting 128", legacy)
	}
	if snap := mustProgress(t, coord, id); snap.Done != 29 || snap.Leased != 0 || snap.Audits != 29 {
		t.Fatalf("restored %+v, want the manifest's 29 values, their audits re-opened and no lease", snap)
	}

	truth := map[string][]float64{}
	if err := job.ExecTasks(ctx, spec, spec.Tasks(), job.ExecOptions{Workers: 1}, func(jt job.Task, vals []float64, _ time.Duration) error {
		truth[jt.ID()] = vals
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for round := 0; !mustProgress(t, coord, id).Complete; round++ {
		if round == 100 {
			t.Fatalf("the honest workers did not finish: %+v", mustProgress(t, coord, id))
		}
		worker := []string{"w0", "w2"}[round%2]
		lease, err := coord.Lease(ctx, id, worker, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Tasks) > 0 {
			if _, err := coord.IngestResults(ctx, id, ResultsUpload{Worker: worker,
				Results: results(lease.Tasks, func(lt LeaseTask) []float64 { return truth[lt.Task] })}); err != nil {
				t.Fatal(err)
			}
		}
	}
	scores, ok, err := coord.Scores(id)
	if err != nil || !ok || csvOf(t, spec.Domain, scores) != csvOf(t, spec.Domain, wantScores(t, spec)) {
		t.Fatalf("the finished job's CSV is not job.Run's (%v, %v)", ok, err)
	}
}

// FuzzWALLine: the codec never accepts a line the oracle refuses, never
// reads a different record from one both accept, refuses one the oracle
// accepts only in a named form, re-encodes what it accepts to the
// oracle's bytes, and reads back every line the old writer could write.
func FuzzWALLine(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "commit.golden"))
	if err != nil {
		f.Fatal(err)
	}
	parent, err := os.ReadFile(filepath.Join("testdata", "parent.wal"))
	if err != nil {
		f.Fatal(err)
	}
	parentDir, err := os.ReadFile(filepath.Join("testdata", "parent-dir", walFileName))
	if err != nil {
		f.Fatal(err)
	}
	// The lease, hedge and expire lines an older coordinator wrote to a
	// job's file: the codec still reads what replay skips.
	leaseRecords, err := os.ReadFile(filepath.Join("testdata", "lease-records-dir", "gossip-46abc5c74ee7", "manifest-grid.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(slices.Concat(golden, parent, parentDir, leaseRecords), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"crc":`)) {
			f.Add(bytes.TrimSuffix(line, []byte("\n")), "", "", "", "", int64(0))
		}
	}
	for _, r := range parentWAL {
		f.Add([]byte(`{"crc":0,"rec":{}}`), r.T, r.Job, r.Task, r.Worker, r.ElapsedMS)
	}
	for _, row := range walRefusedForms {
		f.Add(row.line, "", "", "", "", int64(0))
	}
	f.Add(walLineOf(` {"rec" : `, `{"t":"lease" ,"x":[{}], "job":"j"}`, `}`), "expire", "", "", "", int64(-1))
	f.Fuzz(func(t *testing.T, line []byte, typ, job, task, worker string, elapsed int64) {
		got, ok := decodeWALLine(line)
		want, wantOK := oracleWALLine(line)
		switch {
		case ok && !wantOK:
			t.Fatalf("codec accepts %q as %+v, the oracle refuses it", line, got)
		case ok && got != want:
			t.Fatalf("codec reads %q as %+v, the oracle as %+v", line, got, want)
		case !ok && wantOK && refusedWALForm(line) == "":
			t.Fatalf("codec refuses %q, which the oracle reads as %+v, in no named form", line, want)
		case ok:
			if canon, oracle := appendWALLine(nil, got), oracleWALWrite(t, got); !bytes.Equal(canon, oracle) {
				t.Fatalf("%+v re-encodes to %q, the oracle writes %q", got, canon, oracle)
			}
		}

		r := walRecord{T: typ, Job: job, Task: task, Worker: worker, ElapsedMS: elapsed}
		written := oracleWALWrite(t, r)
		if mine := appendWALLine(nil, r); !bytes.Equal(mine, written) {
			t.Fatalf("%+v: the codec writes %q, the oracle %q", r, mine, written)
		}
		back, ok := decodeWALLine(bytes.TrimSuffix(written, []byte("\n")))
		want, _ = oracleWALLine(written)
		if !ok || back != want {
			t.Fatalf("the old writer's %q reads back as %+v (ok %v), the oracle's %+v", written, back, ok, want)
		}
	})
}

// TestWALReplayHealthOnMetrics: /metrics reports how the last start-up's
// read of the quarantine journal went — quarantines replayed (an older
// coordinator's job record is not one), lines skipped and the time it
// took.
func TestWALReplayHealthOnMetrics(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walRecord{T: walQuarantine, Worker: "evil"}, walRecord{T: walPriority, Job: "j"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"crc":12345,"rec":{"t":"lease","job":"j","task":"bogus"}}` + "\n") // wrong CRC
	f.Close()

	c := NewCoordinator(CoordinatorOptions{Dir: dir})
	defer c.Close()
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	gauges := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && strings.HasPrefix(name, "grid_wal_") {
			gauges[name], _ = strconv.ParseFloat(val, 64)
		}
	}
	if gauges["grid_wal_replayed_records"] != 1 || gauges["grid_wal_skipped_records"] != 1 || !(gauges["grid_wal_replay_seconds"] > 0) {
		t.Fatalf("replay gauges %v, want 1 replayed, 1 skipped, a replay time above 0", gauges)
	}
	for _, help := range []string{"# HELP grid_wal_skipped_records ", "# HELP grid_wal_replay_seconds "} {
		if !strings.Contains(rec.Body.String(), help) {
			t.Errorf("/metrics has no %q line", help)
		}
	}
}
