package cache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/linelog"
)

// The persistent layer is an append-only segment log:
//
//	<dir>/seg-000001.log, seg-000002.log, ...
//
// Each segment starts with an 8-byte magic ("DSASCR1\n", validated on
// open — a directory of something else is an error, not garbage
// lookups) followed by fixed-size records:
//
//	key[32] | score float64 LE [8] | crc32 IEEE of the first 40 [4]
//
// Append-only and fixed-size buys the crash story for free: a torn
// tail from a crash is a short or CRC-broken record, detected and
// dropped on the next open — at worst the cache forgets the last few
// scores, it can never serve a wrong one. A record is read and verified
// once, by the scan at open that loads it into memory, and nothing is
// read after that: corruption found then (bit rot, truncated copies) is
// a miss, and bytes that change on disk later change no served value.
//
// Every open claims a *fresh* segment (O_EXCL on max+1) instead of
// appending to an existing one, so any number of processes may share a
// cache directory: each writes its own segment, readers merge all of
// them at open, and no write ever races another process's. This is the
// same multi-writer discipline the job checkpoints use (one manifest
// per shard, merge on load).
//
// Values are never rewritten — a key's score is a pure function of the
// key (dsa.CacheKey hashes everything score-relevant) — so there is no
// compaction and no tombstone; duplicate keys across segments (two
// processes caching one score) are benign and deduplicated by the
// map at open.

const (
	segMagic      = "DSASCR1\n"
	segHeaderSize = len(segMagic)
	recordSize    = 32 + 8 + 4

	// defaultSegmentBytes is the rotation threshold for the active
	// segment: ~95k scores per segment.
	defaultSegmentBytes = 4 << 20

	// scanBufferBytes is the read size of the open-time scan: a segment
	// is a few sequential reads, not one per record.
	scanBufferBytes = 256 << 10
)

type diskLog struct {
	dir        string
	segBytes   int64
	lastSeg    int      // highest segment number scanned or claimed
	active     *os.File // nil until the first append
	activeSize int64
	total      int64 // bytes across all segments
}

func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.log", n))
}

// openDiskLog scans every segment in dir (creating dir if needed) into
// a key→score map, counting the records it drops, and prepares to claim
// a fresh active segment on the first append. No segment stays open.
func openDiskLog(dir string, segBytes int64) (*diskLog, map[Key]float64, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("cache: dir: %w", err)
	}
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, nil, 0, err
	}
	sort.Strings(names)
	// The map is sized for every record the segments can hold, so the
	// scan never rehashes it.
	records := int64(0)
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			records += fi.Size() / recordSize
		}
	}
	d := &diskLog{dir: dir, segBytes: segBytes}
	vals := make(map[Key]float64, records)
	var dropped uint64
	r := bufio.NewReaderSize(nil, scanBufferBytes)
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%06d.log", &n); err != nil {
			continue // not ours
		}
		size, drops, err := scanSegment(name, r, vals)
		if err != nil {
			return nil, nil, 0, err
		}
		d.lastSeg = max(d.lastSeg, n)
		d.total += size
		dropped += drops
	}
	return d, vals, dropped, nil
}

// scanSegment validates one segment and merges its records into vals,
// returning the bytes of its header and whole records. Records that are
// torn (short tail) or fail their CRC are dropped and counted;
// fixed-size records keep the scan aligned, so a single corrupt record
// never takes the rest of the segment with it. The segment is read
// through r, sequentially, once.
func scanSegment(path string, r *bufio.Reader, vals map[Key]float64) (size int64, dropped uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("cache: open segment: %w", err)
	}
	defer f.Close()
	r.Reset(f)
	var header [segHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		// An empty or headerless file (crash between create and header
		// write) holds no records; skip it.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 1, nil
		}
		return 0, 0, fmt.Errorf("cache: read segment header %s: %w", path, err)
	}
	if string(header[:]) != segMagic {
		return 0, 0, fmt.Errorf("cache: %s is not a score cache segment (bad magic %q) — wrong -cache-dir?", path, header[:])
	}
	var rec [recordSize]byte
	size = int64(segHeaderSize)
	for {
		_, err := io.ReadFull(r, rec[:])
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			dropped++ // torn tail from a crash mid-append
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("cache: read segment %s: %w", path, err)
		}
		if verifyRecord(rec[:]) {
			vals[Key(rec[:32])] = math.Float64frombits(binary.LittleEndian.Uint64(rec[32:40]))
		} else {
			dropped++
		}
		size += recordSize
	}
	return size, dropped, nil
}

func verifyRecord(rec []byte) bool {
	return binary.LittleEndian.Uint32(rec[40:44]) == crc32.ChecksumIEEE(rec[:40])
}

// put appends k's record to the active segment (claiming or rotating
// one as needed). The Store calls it once per key it did not hold.
func (d *diskLog) put(k Key, v float64) error {
	if d.active == nil || d.activeSize >= d.segBytes {
		if err := d.rotate(); err != nil {
			return err
		}
	}
	var rec [recordSize]byte
	copy(rec[:32], k[:])
	binary.LittleEndian.PutUint64(rec[32:40], math.Float64bits(v))
	binary.LittleEndian.PutUint32(rec[40:44], crc32.ChecksumIEEE(rec[:40]))
	// Written at the segment's record boundary, and trimmed back on
	// failure: a torn record can never shift the ones after it off the
	// fixed-size grid scanSegment walks.
	w := linelog.WrapWriter(d.active.Name(), io.NewOffsetWriter(d.active, d.activeSize))
	if _, err := w.Write(rec[:]); err != nil {
		d.active.Truncate(d.activeSize)
		return fmt.Errorf("cache: append segment: %w", err)
	}
	d.activeSize += recordSize
	d.total += recordSize
	return nil
}

// rotate syncs and closes the current active segment and claims a
// fresh one with O_EXCL, so concurrent processes sharing the directory
// can never append to one file.
func (d *diskLog) rotate() error {
	if err := d.close(); err != nil {
		return fmt.Errorf("cache: retire segment: %w", err)
	}
	n := d.lastSeg + 1
	for {
		f, err := os.OpenFile(segPath(d.dir, n), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, os.ErrExist) {
			n++ // another process claimed it between our scan and now
			continue
		}
		if err != nil {
			return fmt.Errorf("cache: claim segment: %w", err)
		}
		d.lastSeg = n
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("cache: write segment header: %w", err)
		}
		// Make the segment's directory entry durable before any record
		// lands in it — the same discipline the checkpoint writer uses.
		if err := linelog.SyncDir(d.dir); err != nil {
			f.Close()
			return fmt.Errorf("cache: sync cache dir: %w", err)
		}
		d.active, d.activeSize = f, int64(segHeaderSize)
		d.total += int64(segHeaderSize)
		return nil
	}
}

// sync flushes the active segment to stable storage.
func (d *diskLog) sync() error {
	if d.active == nil {
		return nil
	}
	return d.active.Sync()
}

// close syncs and closes the active segment, if any.
func (d *diskLog) close() error {
	if d.active == nil {
		return nil
	}
	err := d.active.Sync()
	if cerr := d.active.Close(); err == nil {
		err = cerr
	}
	d.active = nil
	return err
}
