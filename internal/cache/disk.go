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
// scores, it can never serve a wrong one. Records are additionally
// CRC-verified on every read, so latent corruption (bit rot, truncated
// copies) degrades to a miss, never a bad hit.
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
// index at open.

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

type recordLoc struct {
	seg int
	off int64
}

type diskLog struct {
	dir      string
	segBytes int64

	index      map[Key]recordLoc
	readers    map[int]*os.File // segment number → read handle (includes the active segment)
	active     *os.File
	activeSeg  int
	activeSize int64
	total      int64 // bytes across all segments
	dropped    uint64
}

func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.log", n))
}

// openDiskLog scans every segment in dir (creating dir if needed),
// builds the key→location index, and prepares to claim a fresh active
// segment on the first append.
func openDiskLog(dir string, segBytes int64) (*diskLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: dir: %w", err)
	}
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	// The index is sized for every record the segments can hold, so the
	// scan never rehashes it.
	records := int64(0)
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			records += fi.Size() / recordSize
		}
	}
	d := &diskLog{
		dir:      dir,
		segBytes: segBytes,
		index:    make(map[Key]recordLoc, records),
		readers:  map[int]*os.File{},
	}
	r := bufio.NewReaderSize(nil, scanBufferBytes)
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%06d.log", &n); err != nil {
			continue // not ours
		}
		if err := d.scanSegment(name, n, r); err != nil {
			d.closeReaders()
			return nil, err
		}
	}
	return d, nil
}

// scanSegment validates one segment and merges its records into the
// index. Records that are torn (short tail) or fail their CRC are
// dropped and counted; fixed-size records keep the scan aligned, so a
// single corrupt record never takes the rest of the segment with it.
// The segment is read through r, sequentially; the file stays open as
// the ReadAt handle of its records, which does not use the file offset
// the scan leaves behind.
func (d *diskLog) scanSegment(path string, n int, r *bufio.Reader) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("cache: open segment: %w", err)
	}
	r.Reset(f)
	var header [segHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		// An empty or headerless file (crash between create and header
		// write) holds no records; skip it.
		f.Close()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			d.dropped++
			return nil
		}
		return fmt.Errorf("cache: read segment header %s: %w", path, err)
	}
	if string(header[:]) != segMagic {
		f.Close()
		return fmt.Errorf("cache: %s is not a score cache segment (bad magic %q) — wrong -cache-dir?", path, header[:])
	}
	var rec [recordSize]byte
	off := int64(segHeaderSize)
	for {
		_, err := io.ReadFull(r, rec[:])
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			d.dropped++ // torn tail from a crash mid-append
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("cache: read segment %s: %w", path, err)
		}
		if verifyRecord(rec[:]) {
			var k Key
			copy(k[:], rec[:32])
			d.index[k] = recordLoc{seg: n, off: off}
		} else {
			d.dropped++
		}
		off += recordSize
	}
	d.total += off
	d.readers[n] = f
	return nil
}

func verifyRecord(rec []byte) bool {
	return binary.LittleEndian.Uint32(rec[40:44]) == crc32.ChecksumIEEE(rec[:40])
}

// get reads and verifies k's record. A record that fails verification
// at read time (latent corruption) is dropped from the index and
// reported as a miss.
func (d *diskLog) get(k Key) (float64, bool) {
	loc, ok := d.index[k]
	if !ok {
		return 0, false
	}
	f := d.readers[loc.seg]
	if f == nil {
		return 0, false
	}
	var rec [recordSize]byte
	if _, err := f.ReadAt(rec[:], loc.off); err != nil {
		delete(d.index, k)
		d.dropped++
		return 0, false
	}
	var have Key
	copy(have[:], rec[:32])
	if have != k || !verifyRecord(rec[:]) {
		delete(d.index, k)
		d.dropped++
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[32:40])), true
}

// put appends k's record to the active segment (claiming or rotating
// one as needed). A key already present is a no-op: values never
// change, so the first record wins.
func (d *diskLog) put(k Key, v float64) error {
	if _, ok := d.index[k]; ok {
		return nil
	}
	if d.active == nil || d.activeSize >= d.segBytes {
		if err := d.rotate(); err != nil {
			return err
		}
	}
	var rec [recordSize]byte
	copy(rec[:32], k[:])
	binary.LittleEndian.PutUint64(rec[32:40], math.Float64bits(v))
	binary.LittleEndian.PutUint32(rec[40:44], crc32.ChecksumIEEE(rec[:40]))
	// Written at the offset the index is about to record, and trimmed
	// back on failure: a torn record can never shift the ones after it
	// off the fixed-size grid scanSegment walks.
	w := linelog.WrapWriter(d.active.Name(), io.NewOffsetWriter(d.active, d.activeSize))
	if _, err := w.Write(rec[:]); err != nil {
		d.active.Truncate(d.activeSize)
		return fmt.Errorf("cache: append segment: %w", err)
	}
	d.index[k] = recordLoc{seg: d.activeSeg, off: d.activeSize}
	d.activeSize += recordSize
	d.total += recordSize
	return nil
}

// rotate syncs and retires the current active segment (its read handle
// stays open) and claims a fresh one with O_EXCL, so concurrent
// processes sharing the directory can never append to one file.
func (d *diskLog) rotate() error {
	if d.active != nil {
		if err := d.active.Sync(); err != nil {
			return fmt.Errorf("cache: sync segment: %w", err)
		}
		d.active = nil
	}
	n := 1
	for seg := range d.readers {
		if seg >= n {
			n = seg + 1
		}
	}
	for {
		f, err := os.OpenFile(segPath(d.dir, n), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		if errors.Is(err, os.ErrExist) {
			n++ // another process claimed it between our scan and now
			continue
		}
		if err != nil {
			return fmt.Errorf("cache: claim segment: %w", err)
		}
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
		d.active, d.activeSeg, d.activeSize = f, n, int64(segHeaderSize)
		d.total += int64(segHeaderSize)
		d.readers[n] = f
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

func (d *diskLog) close() error {
	var first error
	if d.active != nil {
		if err := d.active.Sync(); err != nil {
			first = err
		}
		d.active = nil
	}
	if err := d.closeReaders(); err != nil && first == nil {
		first = err
	}
	return first
}

func (d *diskLog) closeReaders() error {
	var first error
	for n, f := range d.readers {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.readers, n)
	}
	return first
}
