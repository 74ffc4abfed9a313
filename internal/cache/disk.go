package cache

import (
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
// Each segment starts with an 8-byte magic, validated on open — a
// directory of something else is an error, not garbage lookups — and
// naming the segment's version, followed by fixed-size records:
//
//	key[32] | score float64 LE [8] | crc32 of the first 40 [4]
//
// Version 2 ("DSASCR2\n", the only one written) checksums with CRC-32C
// (Castagnoli), which amd64 and arm64 compute in hardware. Version 1
// ("DSASCR1\n") used CRC-32 IEEE and is still read, each segment with
// the CRC its magic names, so a directory filled before version 2
// keeps serving.
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
// processes caching one score) are benign: at open the later verified
// record's value is kept in the key's one entry.

const (
	segMagic      = "DSASCR2\n"
	segMagicV1    = "DSASCR1\n"
	segHeaderSize = len(segMagic)
	recordSize    = entrySize + 4

	// defaultSegmentBytes is the rotation threshold for the active
	// segment: ~95k scores per segment.
	defaultSegmentBytes = 4 << 20
)

// castagnoli is the CRC table of version-2 segments.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segTable returns the CRC table a segment's magic names, nil for a
// magic that is not a score cache's.
func segTable(magic []byte) *crc32.Table {
	switch string(magic) {
	case segMagic:
		return castagnoli
	case segMagicV1:
		return crc32.IEEETable
	}
	return nil
}

type diskLog struct {
	dir        string
	segBytes   int64
	lastSeg    int      // highest segment number scanned or claimed
	active     *os.File // nil until the first append; its offset is activeSize
	activeSize int64
	total      int64            // bytes across all segments
	rec        [recordSize]byte // put's record: kept here, an append allocates nothing
}

func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.log", n))
}

// openDiskLog reads every segment in dir (creating dir if needed) into
// an index, counting the records it drops, and prepares to claim a
// fresh active segment on the first append. No segment stays open.
//
// One buffer, sized from the segments' total bytes, takes them all:
// each segment is read whole at the end of the entries scanned before
// it, and its verified records are compacted in place into entries, so
// the buffer becomes the index's recs. The table is sized once for every
// record the segments can hold.
func openDiskLog(dir string, segBytes int64) (*diskLog, index, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, index{}, 0, fmt.Errorf("cache: dir: %w", err)
	}
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, index{}, 0, err
	}
	sort.Strings(names)
	type segFile struct {
		path string
		n    int
		size int64
	}
	segs := make([]segFile, 0, len(names))
	total := int64(0)
	for _, name := range names {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%06d.log", &n); err != nil {
			continue // not ours
		}
		fi, err := os.Stat(name)
		if err != nil {
			return nil, index{}, 0, fmt.Errorf("cache: open segment: %w", err)
		}
		segs = append(segs, segFile{name, n, fi.Size()})
		total += fi.Size()
	}
	d := &diskLog{dir: dir, segBytes: segBytes}
	x := newIndex(int(total), int(total/recordSize))
	var dropped uint64
	for _, seg := range segs {
		size, drops, err := readSegment(seg.path, seg.size, &x)
		if err != nil {
			return nil, index{}, 0, err
		}
		d.lastSeg = max(d.lastSeg, seg.n)
		d.total += size
		dropped += drops
	}
	return d, x, dropped, nil
}

// readSegment reads at most the segment's first n bytes (its size when
// it was listed; a writer may have appended since) into x's spare
// capacity and scans them into x.
func readSegment(path string, n int64, x *index) (size int64, dropped uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("cache: open segment: %w", err)
	}
	defer f.Close()
	buf := x.recs[len(x.recs) : len(x.recs)+int(n)]
	got, err := io.ReadFull(f, buf)
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return 0, 0, fmt.Errorf("cache: read segment %s: %w", path, err)
	}
	return scanSegment(path, buf[:got], x)
}

// scanSegment validates one segment's bytes seg, which lie in x.recs'
// spare capacity right after its entries, and admits each record that
// verifies into x, returning the bytes of the header and whole records.
// Records that are torn (short tail) or fail their CRC are dropped and
// counted; fixed-size records keep the scan aligned, so a single
// corrupt record never takes the rest of the segment with it.
//
// A verified record's first 40 bytes are its entry: they are moved down
// to the end of x.recs, which never passes the record being read (an
// entry is 4 bytes shorter than a record and the header is 8), so the
// compaction is in place.
func scanSegment(path string, seg []byte, x *index) (size int64, dropped uint64, err error) {
	if len(seg) < segHeaderSize {
		// An empty or headerless file (crash between create and header
		// write) holds no records; skip it.
		return 0, 1, nil
	}
	tab := segTable(seg[:segHeaderSize])
	if tab == nil {
		return 0, 0, fmt.Errorf("cache: %s is not a score cache segment (bad magic %q) — wrong -cache-dir?", path, seg[:segHeaderSize])
	}
	body := seg[segHeaderSize:]
	whole := len(body) / recordSize * recordSize
	if whole < len(body) {
		dropped++ // torn tail from a crash mid-append
	}
	for o := 0; o < whole; o += recordSize {
		rec := body[o : o+recordSize]
		if binary.LittleEndian.Uint32(rec[entrySize:]) != crc32.Checksum(rec[:entrySize], tab) {
			dropped++
			continue
		}
		x.recs = append(x.recs, rec[:entrySize]...)
		x.admitLast()
	}
	return int64(segHeaderSize + whole), dropped, nil
}

// put appends k's record to the active segment (claiming or rotating
// one as needed). The Store calls it once per key it did not hold.
func (d *diskLog) put(k Key, v float64) error {
	if d.active == nil || d.activeSize >= d.segBytes {
		if err := d.rotate(); err != nil {
			return err
		}
	}
	rec := d.rec[:]
	copy(rec[:32], k[:])
	binary.LittleEndian.PutUint64(rec[32:40], math.Float64bits(v))
	binary.LittleEndian.PutUint32(rec[40:44], crc32.Checksum(rec[:40], castagnoli))
	// Written at the segment's record boundary, and trimmed back (size
	// and offset) on failure: a torn record can never shift the ones
	// after it off the fixed-size grid scanSegment walks.
	if _, err := linelog.WrapWriter(d.active.Name(), d.active).Write(rec); err != nil {
		d.active.Truncate(d.activeSize)
		d.active.Seek(d.activeSize, io.SeekStart)
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
