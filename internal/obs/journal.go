package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Record is one journalled span, as read back from a trace
// journal. The JSON field names are the journal format (see the
// DESIGN.md "Observability" section).
type Record struct {
	Writer  string         `json:"w"`
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"par,omitempty"`
	Name    string         `json:"name"`
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Start returns the span's start offset on its writer's timebase.
func (r Record) Start() time.Duration { return time.Duration(r.StartUS) * time.Microsecond }

// Dur returns the span's duration.
func (r Record) Dur() time.Duration { return time.Duration(r.DurUS) * time.Microsecond }

// End returns the span's end offset on its writer's timebase.
func (r Record) End() time.Duration { return r.Start() + r.Dur() }

// AttrStr returns a string attribute, or "" when absent or not a
// string.
func (r Record) AttrStr(key string) string {
	s, _ := r.Attrs[key].(string)
	return s
}

// AttrInt returns a numeric attribute as int64 (JSON numbers decode
// as float64), or 0 when absent.
func (r Record) AttrInt(key string) int64 {
	switch v := r.Attrs[key].(type) {
	case float64:
		return int64(v)
	case json.Number:
		n, _ := v.Int64()
		return n
	}
	return 0
}

// journalLess is the canonical total order of the merged timeline:
// start time, then writer, then span ID, then (for robustness against
// duplicated lines) the raw bytes. Deterministic regardless of which
// journal a record came from or in which order files were merged.
func journalLess(ai, bi Record, araw, braw []byte) bool {
	if ai.StartUS != bi.StartUS {
		return ai.StartUS < bi.StartUS
	}
	if ai.Writer != bi.Writer {
		return ai.Writer < bi.Writer
	}
	if ai.ID != bi.ID {
		return ai.ID < bi.ID
	}
	return bytes.Compare(araw, braw) < 0
}

// maxLine bounds one journal line on read. Far above anything the
// recorder emits (maxAttrs small attributes); lines past it are
// treated as corrupt and skipped.
const maxLine = 4 << 20

type rawRecord struct {
	rec Record
	raw []byte
}

// readJournal scans one journal, keeping each valid line's decoded
// record and raw bytes. Lines that do not parse — a torn final line
// from a crashed writer, a corrupted stretch — are skipped, exactly
// like the checkpoint manifest reader: appends are atomic enough in
// practice that a torn line can only be the last one, and skipping it
// loses one span, never the journal.
func readJournal(path string) ([]rawRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readJournalFrom(f, path)
}

// readJournalFrom is readJournal over any byte stream; name is only
// used in error messages.
func readJournalFrom(r io.Reader, name string) ([]rawRecord, error) {
	var out []rawRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Name == "" {
			continue // torn or corrupt line: skip, keep the rest
		}
		out = append(out, rawRecord{rec: rec, raw: append([]byte(nil), line...)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read %s: %w", name, err)
	}
	return out, nil
}

// LoadFile reads one journal's records in canonical order, skipping
// torn or corrupt lines.
func LoadFile(path string) ([]Record, error) { return LoadFiles(path) }

// LoadReader reads one JSONL record stream — e.g. a merged journal
// fetched from a coordinator's GET /v1/trace — into canonical order,
// skipping torn or corrupt lines exactly like the file readers.
func LoadReader(r io.Reader) ([]Record, error) {
	raws, err := readJournalFrom(r, "stream")
	if err != nil {
		return nil, err
	}
	sortRaw(raws)
	return records(raws), nil
}

// LoadFiles reads the given journals into one merged, canonically
// ordered timeline. The result is independent of argument order; zero
// paths yield zero records.
func LoadFiles(paths ...string) ([]Record, error) {
	raws, err := loadSorted(paths)
	if err != nil {
		return nil, err
	}
	return records(raws), nil
}

// loadSorted reads the given journals' valid lines, decoded and raw, in
// the canonical order — what LoadFiles and Merge both start from.
func loadSorted(paths []string) ([]rawRecord, error) {
	var raws []rawRecord
	for _, p := range paths {
		rs, err := readJournal(p)
		if err != nil {
			return nil, err
		}
		raws = append(raws, rs...)
	}
	sortRaw(raws)
	return raws, nil
}

// JournalFiles lists the trace journals under dir, sorted by name.
func JournalFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, JournalPattern))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// LoadDir reads every trace-*.jsonl journal under dir — one per shard
// or worker — into one merged, canonically ordered timeline. The
// result is independent of file system enumeration order.
func LoadDir(dir string) ([]Record, error) {
	paths, err := JournalFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("obs: no %s journals in %s", JournalPattern, dir)
	}
	return LoadFiles(paths...)
}

func sortRaw(raws []rawRecord) {
	sort.SliceStable(raws, func(a, b int) bool {
		return journalLess(raws[a].rec, raws[b].rec, raws[a].raw, raws[b].raw)
	})
}

func records(raws []rawRecord) []Record {
	out := make([]Record, len(raws))
	for i, r := range raws {
		out[i] = r.rec
	}
	return out
}

// Merge writes the records of the given journals to w as one ordered
// JSONL timeline. Output lines are the input lines verbatim, ordered
// by the canonical total order, so merging the same set of journals
// produces byte-identical output regardless of argument order — the
// same property the checkpoint's shard manifests have. Returns the
// number of records written.
func Merge(w io.Writer, paths ...string) (int, error) {
	raws, err := loadSorted(paths)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	for _, r := range raws {
		if _, err := bw.Write(r.raw); err != nil {
			return 0, err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return 0, err
		}
	}
	return len(raws), bw.Flush()
}
