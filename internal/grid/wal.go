package grid

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/jsonline"
	"repro/internal/linelog"
)

// A scheduler record is a verdict the values cannot reconstruct — an
// audit verify or a quarantine — and the argument of the
// transition that made it live (transition.go). A job's records are
// lines of its own file, beside its value lines and tombstones; a
// quarantine spans jobs and is the one record of the quarantine journal,
// coordinator.wal (an older coordinator's also held every job's records,
// which a restart counts and leaves alone). Leases are not records: a
// grant, a move and an expiry change memory only, and a restart starts
// every unfinished task pending. An older coordinator journalled them,
// and job priorities (retiredRecord); replay skips those lines.
//
// Format: `{"crc":<ieee>,"rec":{...}}`, the CRC32 taken over the raw rec
// bytes; a line whose CRC fails is skipped. The bytes are json.Marshal's
// for the envelope and walRecord, written and read by internal/jsonline;
// a record in a job's file names no job. Every record is a verdict, and
// is appended durably.
const walFileName = "coordinator.wal"

// walRecord event types.
const (
	walVerify     = "verify"     // task's recorded value audit-confirmed by worker
	walQuarantine = "quarantine" // worker quarantined (names no job)
)

// retiredRecord reports whether t is a record type only an older
// coordinator wrote: a lease granted, moved or ended, the result record
// the value line replaced, or a job's fair-share weight.
func retiredRecord(t string) bool {
	return t == "lease" || t == "hedge" || t == "expire" || t == "ingest" || t == "priority"
}

// walRecord is one journalled state change. appendWALLine and
// decodeWALLine are its codec; the tags name the keys they write, in
// order, and are what the tests' encoding/json oracle reads.
type walRecord struct {
	T         string `json:"t"`
	Job       string `json:"job,omitempty"`
	Task      string `json:"task,omitempty"`
	Worker    string `json:"worker,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"` // verify records: feeds the latency EWMA on replay
}

var (
	walLineKeys   = []string{"crc", "rec"}
	walRecordKeys = []string{"t", "job", "task", "worker", "elapsed_ms"}
)

// appendWALLine appends r's line, newline included.
func appendWALLine(b []byte, r walRecord) []byte {
	var scratch [128]byte
	rec := append(scratch[:0], `{"t":`...)
	rec = jsonline.AppendString(rec, r.T)
	if r.Job != "" {
		rec = jsonline.AppendString(append(rec, `,"job":`...), r.Job)
	}
	if r.Task != "" {
		rec = jsonline.AppendString(append(rec, `,"task":`...), r.Task)
	}
	if r.Worker != "" {
		rec = jsonline.AppendString(append(rec, `,"worker":`...), r.Worker)
	}
	if r.ElapsedMS != 0 {
		rec = strconv.AppendInt(append(rec, `,"elapsed_ms":`...), r.ElapsedMS, 10)
	}
	rec = append(rec, '}')
	b = strconv.AppendUint(append(b, `{"crc":`...), uint64(crc32.ChecksumIEEE(rec)), 10)
	b = append(append(b, `,"rec":`...), rec...)
	return append(b, "}\n"...)
}

// decodeWALLine reads one WAL line; ok is false for a malformed line or
// one whose CRC does not match its record's bytes.
func decodeWALLine(line []byte) (r walRecord, ok bool) {
	var (
		crc uint32
		rec []byte
	)
	o := jsonline.NewObject(line)
	for o.Next() {
		switch string(o.Key()) {
		case "crc":
			crc = o.Uint32()
		case "rec":
			rec = o.Raw()
		default:
			o.Skip(walLineKeys...)
		}
	}
	if !o.End() || rec == nil || crc32.ChecksumIEEE(rec) != crc {
		return walRecord{}, false
	}
	o = jsonline.NewObject(rec)
	for o.Next() {
		switch string(o.Key()) {
		case "t":
			r.T = o.String()
		case "job":
			r.Job = o.String()
		case "task":
			r.Task = o.String()
		case "worker":
			r.Worker = o.String()
		case "elapsed_ms":
			r.ElapsedMS = o.Int(64)
		default:
			o.Skip(walRecordKeys...)
		}
	}
	return r, o.End()
}

type wal struct{ log *linelog.Log }

// openWAL opens (creating if absent) dir's quarantine journal and reads
// every intact record. skipped counts corrupt lines left in place (their
// CRC failed; appends after them are safe).
func openWAL(dir string) (w *wal, recs []walRecord, skipped int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("grid: wal dir: %w", err)
	}
	log, err := linelog.Open(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("grid: open wal: %w", err)
	}
	data, err := os.ReadFile(log.Path())
	if err != nil {
		log.Close()
		return nil, nil, 0, fmt.Errorf("grid: read wal: %w", err)
	}
	linelog.Lines(data, func(line []byte) {
		if rec, ok := decodeWALLine(line); ok {
			recs = append(recs, rec)
		} else {
			skipped++
		}
	})
	return &wal{log}, recs, skipped, nil
}

// append journals recs as one durable write.
func (w *wal) append(recs ...walRecord) error {
	var buf []byte
	for _, r := range recs {
		buf = appendWALLine(buf, r)
	}
	return w.log.Append(buf, true)
}

func (w *wal) Close() error { return w.log.Close() }
