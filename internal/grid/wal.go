package grid

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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
// whose CRC fails. Only verdict-grade records (quarantine, verify) are
// appended durably: the rest must survive a kill -9, which a plain
// write does, not power loss.
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

type walRecord struct {
	T         string `json:"t"`
	Job       string `json:"job,omitempty"`
	Task      string `json:"task,omitempty"`
	Worker    string `json:"worker,omitempty"`
	Weight    int    `json:"weight,omitempty"`     // priority records
	ElapsedMS int64  `json:"elapsed_ms,omitempty"` // ingest records: feeds the latency EWMA on replay
}

type walLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
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
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte("\n"))
		var l walLine
		var rec walRecord
		if json.Unmarshal(line, &l) != nil ||
			crc32.ChecksumIEEE(l.Rec) != l.CRC ||
			json.Unmarshal(l.Rec, &rec) != nil {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	return &wal{log}, recs, skipped, nil
}

// append journals recs as one write, durably when sync is set.
func (w *wal) append(sync bool, recs ...walRecord) error {
	var buf []byte
	for _, r := range recs {
		raw, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("grid: wal encode: %w", err)
		}
		line, err := json.Marshal(walLine{CRC: crc32.ChecksumIEEE(raw), Rec: raw})
		if err != nil {
			return fmt.Errorf("grid: wal encode: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return w.log.Append(buf, sync)
}

func (w *wal) Close() error { return w.log.Close() }
