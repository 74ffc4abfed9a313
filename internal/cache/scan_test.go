package cache

// The open-time scan reads each segment whole and compacts its verified
// records in place into the index. Its contract is the record-at-a-time
// loop it replaced, kept here as the reference: whatever bytes follow
// either magic, Open indexes exactly the records that loop indexes
// (checking each with the CRC the magic names), counts exactly the drops
// it counts, and serves nothing whose CRC does not verify.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// segment is one segment file's magic and the bytes after it.
type segment struct {
	magic string
	body  []byte
}

// refScan walks body — a segment's bytes after magic — one ReadFull per
// record, folding its verified records into index (value bits; a key
// recorded twice keeps its later record, as the store's index does).
// refused collects the keys of whole records whose CRC fails.
func refScan(magic string, body []byte, index map[Key]uint64) (refused []Key, dropped uint64, whole int) {
	tab := crc32.IEEETable
	if magic == segMagic {
		tab = crc32.MakeTable(crc32.Castagnoli)
	}
	r := bytes.NewReader(body)
	var rec [recordSize]byte
	for {
		_, err := io.ReadFull(r, rec[:])
		if errors.Is(err, io.EOF) {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			dropped++
			break
		}
		var k Key
		copy(k[:], rec[:32])
		if binary.LittleEndian.Uint32(rec[40:]) == crc32.Checksum(rec[:40], tab) {
			index[k] = binary.LittleEndian.Uint64(rec[32:40])
		} else {
			refused = append(refused, k)
			dropped++
		}
		whole++
	}
	return refused, dropped, whole
}

// checkScan makes segs dir's segments, in order, opens dir and holds the
// store to refScan folded over them.
func checkScan(t *testing.T, dir string, segs ...segment) {
	t.Helper()
	old, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	for _, name := range old {
		os.Remove(name)
	}
	index := map[Key]uint64{}
	var refused []Key
	var dropped uint64
	bytesOnDisk := 0
	for i, seg := range segs {
		if err := os.WriteFile(segPath(dir, i+1), append([]byte(seg.magic), seg.body...), 0o644); err != nil {
			t.Fatal(err)
		}
		r, d, whole := refScan(seg.magic, seg.body, index)
		refused, dropped = append(refused, r...), dropped+d
		bytesOnDisk += segHeaderSize + whole*recordSize
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open over %d segments: %v", len(segs), err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Entries != len(index) || st.Dropped != dropped || st.Bytes != int64(bytesOnDisk) {
		t.Fatalf("Open: %d entries, %d dropped, %d bytes; the reference scan: %d entries, %d dropped, %d bytes",
			st.Entries, st.Dropped, st.Bytes, len(index), dropped, bytesOnDisk)
	}
	for k, want := range index {
		if v, ok := s.Get(k); !ok || math.Float64bits(v) != want {
			t.Fatalf("Get(%s) = %v,%v, the reference scan holds %v", k, v, ok, math.Float64frombits(want))
		}
	}
	for _, k := range refused {
		if _, verified := index[k]; verified {
			continue // the key also has a record that verifies
		}
		if v, ok := s.Get(k); ok {
			t.Fatalf("Get(%s) = %v from a record whose CRC does not verify", k, v)
		}
	}
	if after := s.Stats().Dropped; after != dropped {
		t.Fatalf("reads dropped %d records the scan had indexed", after-dropped)
	}
}

// realSegment is the body (bytes after the magic) of a segment a Store
// wrote: n records, keys first..first+n-1.
func realSegment(t testing.TB, first, n int) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := first; i < first+n; i++ {
		s.Put(key(i), float64(i)/7)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("%d puts left %d segments, want 1", n, len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != segHeaderSize+n*recordSize || string(raw[:segHeaderSize]) != segMagic {
		t.Fatalf("segment of %d records is %d bytes, magic %q", n, len(raw), raw[:segHeaderSize])
	}
	return raw[segHeaderSize:]
}

// v1Segment is the body of testdata/seg-v1.log, a version-1 segment
// (CRC-32 IEEE) written by the last writer of that version: 16 records,
// keys 1000..1015 holding i+0.25.
func v1Segment(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "seg-v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:segHeaderSize]) != segMagicV1 || len(raw) != segHeaderSize+16*recordSize {
		t.Fatalf("testdata/seg-v1.log: magic %q, %d bytes", raw[:segHeaderSize], len(raw))
	}
	return raw[segHeaderSize:]
}

func FuzzScanSegment(f *testing.F) {
	body := realSegment(f, 0, 9)
	f.Add(false, []byte{})
	f.Add(false, body)
	for cut := 1; cut < recordSize; cut++ { // torn at every offset of the last record
		f.Add(false, body[:len(body)-cut])
	}
	flipped := bytes.Clone(body)
	flipped[4*recordSize+35] ^= 0xff // one byte of a value, mid-file
	f.Add(false, flipped)
	f.Add(false, append(bytes.Clone(body), body[2*recordSize:3*recordSize]...)) // a key recorded twice
	v1 := v1Segment(f)
	f.Add(true, v1)
	f.Add(true, v1[:len(v1)-recordSize/2])
	f.Add(true, body) // version-2 records under the version-1 magic: every CRC fails
	f.Add(false, v1)
	// One directory for all of a worker's executions, its segment
	// overwritten each time: creating files is most of an execution.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, isV1 bool, body []byte) {
		magic := segMagic
		if isV1 {
			magic = segMagicV1
		}
		checkScan(t, dir, segment{magic, body})
	})
}

// TestScanSegmentsCorruptAndTorn: several segments of both versions,
// each with a corrupt record, the last torn mid-record and keys repeated
// across them, read as the record-at-a-time scan reads them: every
// segment lands in the one buffer after the entries of those before it.
func TestScanSegmentsCorruptAndTorn(t *testing.T) {
	v1 := v1Segment(t)
	a, b, c := realSegment(t, 0, 300), realSegment(t, 250, 200), realSegment(t, 1010, 40)
	dir := t.TempDir()
	checkScan(t, dir, segment{segMagicV1, v1}, segment{segMagic, a}, segment{segMagic, b}, segment{segMagic, c})
	v1[3*recordSize+7] ^= 0x10
	a[17*recordSize+40] ^= 0x01
	b[199*recordSize] ^= 0x80
	c[0] ^= 0x01
	checkScan(t, dir, segment{segMagicV1, v1}, segment{segMagic, a}, segment{segMagic, b}, segment{segMagic, c[:len(c)-recordSize/2]})
}

// TestMixedVersionDir: a directory holding the committed version-1
// segment and a version-2 segment serves every entry of both, and a
// store opened on it writes version 2 only.
func TestMixedVersionDir(t *testing.T) {
	dir := t.TempDir()
	raw, err := os.ReadFile(filepath.Join("testdata", "seg-v1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		s.Put(key(1000+i), -1) // held already: first wins, nothing written
		s.Put(key(2000+i), float64(i)+0.5)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(segPath(dir, 2))
	if err != nil || string(v2[:segHeaderSize]) != segMagic || len(v2) != segHeaderSize+16*recordSize {
		t.Fatalf("the new segment: %d bytes, %v", len(v2), err)
	}
	s, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Entries != 32 || st.Dropped != 0 || st.Bytes != int64(len(raw)+len(v2)) {
		t.Fatalf("stats = %+v, want 32 entries, no drops, %d bytes", st, len(raw)+len(v2))
	}
	for i := 0; i < 16; i++ {
		if v, ok := s.Get(key(1000 + i)); !ok || v != float64(i)+0.25 {
			t.Fatalf("version-1 key %d = %v,%v", i, v, ok)
		}
		if v, ok := s.Get(key(2000 + i)); !ok || v != float64(i)+0.5 {
			t.Fatalf("version-2 key %d = %v,%v", i, v, ok)
		}
	}
}
