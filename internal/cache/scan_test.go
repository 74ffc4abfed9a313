package cache

// The open-time scan reads a segment through one large buffer. Its
// contract is the record-at-a-time loop it replaced, kept here as the
// reference: whatever bytes follow the magic, Open indexes exactly the
// records that loop indexes, counts exactly the drops it counts, and
// serves nothing whose CRC does not verify.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// refScan walks body — a segment's bytes after the magic — one ReadFull
// per record. index holds each verified record's value bits (a key
// recorded twice keeps its later record, as the store's index does),
// refused the keys of whole records whose CRC fails.
func refScan(body []byte) (index map[Key]uint64, refused []Key, dropped uint64, whole int) {
	index = map[Key]uint64{}
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
		if verifyRecord(rec[:]) {
			index[k] = binary.LittleEndian.Uint64(rec[32:40])
		} else {
			refused = append(refused, k)
			dropped++
		}
		whole++
	}
	return index, refused, dropped, whole
}

// checkScan makes the magic plus body dir's one segment, opens dir and
// holds the store to refScan.
func checkScan(t *testing.T, dir string, body []byte) {
	t.Helper()
	if err := os.WriteFile(segPath(dir, 1), append([]byte(segMagic), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open over %d bytes after the magic: %v", len(body), err)
	}
	defer s.Close()
	index, refused, dropped, whole := refScan(body)
	st := s.Stats()
	if st.Entries != len(index) || st.Dropped != dropped || st.Bytes != int64(segHeaderSize+whole*recordSize) {
		t.Fatalf("Open: %d entries, %d dropped, %d bytes; the reference scan: %d entries, %d dropped, %d whole records",
			st.Entries, st.Dropped, st.Bytes, len(index), dropped, whole)
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
// wrote: n records.
func realSegment(t testing.TB, n int) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
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
	if len(raw) != segHeaderSize+n*recordSize {
		t.Fatalf("segment of %d records is %d bytes", n, len(raw))
	}
	return raw[segHeaderSize:]
}

func FuzzScanSegment(f *testing.F) {
	body := realSegment(f, 9)
	f.Add([]byte{})
	f.Add(body)
	for cut := 1; cut < recordSize; cut++ { // torn at every offset of the last record
		f.Add(body[:len(body)-cut])
	}
	flipped := bytes.Clone(body)
	flipped[4*recordSize+35] ^= 0xff // one byte of a value, mid-file
	f.Add(flipped)
	f.Add(append(bytes.Clone(body), body[2*recordSize:3*recordSize]...)) // a key recorded twice
	// One directory for all of a worker's executions, its segment
	// overwritten each time: creating files is most of an execution.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, body []byte) { checkScan(t, dir, body) })
}

// TestScanAcrossBufferBoundary: a segment longer than the scan's buffer,
// with a corrupt record astride the boundary and a torn tail, reads as the
// record-at-a-time scan reads it.
func TestScanAcrossBufferBoundary(t *testing.T) {
	n := scanBufferBytes/recordSize + 50
	body := realSegment(t, n)
	dir := t.TempDir()
	checkScan(t, dir, body)
	astride := (scanBufferBytes - segHeaderSize) / recordSize // the record the first buffer ends in
	body[astride*recordSize+40] ^= 0x01
	checkScan(t, dir, body[:len(body)-recordSize/2])
}
