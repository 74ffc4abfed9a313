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

// The coordinator WAL journals what the checkpoint (which only stores
// completed values and their tombstones) cannot reconstruct: who was
// handed what and when it ended — lease grants, hedges, expiries and
// revocations, ingest acks (who computed what, how fast), priority
// changes, audit verdicts and quarantines. A record is the argument of
// the transition that made its change live (transition.go); a restart
// passes the records through the same transitions, so the checkpoint
// makes results durable and the WAL makes the *scheduler* durable.
//
// Format: a linelog.Log of JSON lines `{"crc":<ieee>,"rec":{...}}`, the
// CRC32 taken over the raw rec bytes; replay skips and counts a line
// whose CRC fails. The bytes are what json.Marshal writes for the
// envelope and walRecord, written and read by internal/jsonline. Only
// verdict-grade records (quarantine, verify) are appended durably: the
// rest must survive a kill -9, which a plain write does, not power loss.
const walFileName = "coordinator.wal"

// walRecord event types.
const (
	walLease      = "lease"      // task handed to worker (re-leases and audit re-leases included)
	walExpire     = "expire"     // worker's lease on task expired
	walIngest     = "ingest"     // worker's result for task accepted
	walPriority   = "priority"   // job fair-share weight changed
	walVerify     = "verify"     // task's recorded value audit-confirmed by worker
	walQuarantine = "quarantine" // worker quarantined (job field empty: global)
	walHedge      = "hedge"      // speculative duplicate lease granted to worker
)

// walRecord is one journalled state change. appendWALLine and
// decodeWALLine are its codec; the tags name the keys they write, in
// order, and are what the tests' encoding/json oracle reads.
type walRecord struct {
	T         string `json:"t"`
	Job       string `json:"job,omitempty"`
	Task      string `json:"task,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Weight    int    `json:"weight,omitempty"`     // priority records
	ElapsedMS int64  `json:"elapsed_ms,omitempty"` // ingest records: feeds the latency EWMA on replay
}

var (
	walLineKeys   = []string{"crc", "rec"}
	walRecordKeys = []string{"t", "job", "task", "worker", "weight", "elapsed_ms"}
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
	if r.Weight != 0 {
		rec = strconv.AppendInt(append(rec, `,"weight":`...), int64(r.Weight), 10)
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
		case "weight":
			r.Weight = int(o.Int(strconv.IntSize))
		case "elapsed_ms":
			r.ElapsedMS = o.Int(64)
		default:
			o.Skip(walRecordKeys...)
		}
	}
	return r, o.End()
}

type wal struct{ log *linelog.Log }

// openWAL opens (creating if absent) dir's WAL and replays every intact
// record. skipped counts corrupt lines left in place (their CRC failed;
// appends after them are safe).
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

// append journals recs as one write, durably when sync is set.
func (w *wal) append(sync bool, recs ...walRecord) error {
	var buf []byte
	for _, r := range recs {
		buf = appendWALLine(buf, r)
	}
	return w.log.Append(buf, sync)
}

func (w *wal) Close() error { return w.log.Close() }
