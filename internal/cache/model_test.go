package cache

// FuzzStoreMatchesMap holds a Store on disk to a plain-map model of its
// rules across Puts, Gets, reopens, and flipped or torn bytes in its
// segments between a close and the next open:
//
//   - the first Put of a key wins, in memory and on disk;
//   - an open serves the verified records of every segment, in segment
//     order, a later record of a key winning;
//   - a record with a flipped byte or cut short is dropped and counted,
//     never served, and its neighbours survive;
//   - every open writes a fresh segment, rotated at segmentBytes.

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

type modelRec struct {
	k  Key
	v  float64
	ok bool // its CRC still verifies
}

// modelSeg is one segment file: whole records, then tail bytes of a
// torn one.
type modelSeg struct {
	recs []modelRec
	tail int
}

func (m *modelSeg) bodyLen() int { return len(m.recs)*recordSize + m.tail }

type storeModel struct {
	segs   []*modelSeg
	active *modelSeg // the segment this session's Puts go to
	mem    map[Key]float64
}

// open is what a fresh Store serves and counts: a fold over the
// segments' verified records.
func (m *storeModel) open() (dropped uint64, bytes int64) {
	m.active, m.mem = nil, map[Key]float64{}
	for _, seg := range m.segs {
		for _, r := range seg.recs {
			if r.ok {
				m.mem[r.k] = r.v
			} else {
				dropped++
			}
		}
		if seg.tail > 0 {
			dropped++
		}
		bytes += int64(segHeaderSize + len(seg.recs)*recordSize)
	}
	return dropped, bytes
}

func (m *storeModel) put(k Key, v float64, segBytes int) {
	if _, ok := m.mem[k]; ok {
		return
	}
	m.mem[k] = v
	if m.active == nil || segHeaderSize+len(m.active.recs)*recordSize >= segBytes {
		m.active = &modelSeg{}
		m.segs = append(m.segs, m.active)
	}
	m.active.recs = append(m.active.recs, modelRec{k, v, true})
}

// fuzzKey spreads a byte over all four key words.
func fuzzKey(b byte) Key {
	var k Key
	n := b % 48
	k[0], k[9], k[18], k[31] = n, n^0x5a, n*3, 1
	return k
}

func FuzzStoreMatchesMap(f *testing.F) {
	// Ops are 4 bytes: kind, a, b, c.
	f.Add([]byte{0, 1, 2, 3, 2, 1, 0, 0, 4, 0, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 0, 4, 4, 0, 0, 1, 9, 9, 5, 0, 0, 50, 2, 1, 0, 0, 2, 2, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 0, 2, 2, 0, 0, 3, 3, 0, 0, 4, 4, 0, 11, 0, 0, 3, 2, 4, 0, 0, 0, 4, 7, 0, 4, 0, 0, 0, 2, 4, 0, 0})
	f.Add([]byte{0, 7, 1, 0, 4, 0, 0, 0, 0, 7, 2, 0, 0, 8, 3, 0, 4, 0, 0, 0, 5, 1, 0, 9, 4, 0, 0, 0, 2, 7, 0, 0, 2, 8, 0, 0})
	segBytes := segHeaderSize + 3*recordSize
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, ops []byte) {
		old, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		for _, name := range old {
			os.Remove(name)
		}
		m := &storeModel{}
		var s *Store
		reopen := func() {
			t.Helper()
			if s != nil {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			var err error
			if s, err = Open(Options{Dir: dir, segmentBytes: int64(segBytes)}); err != nil {
				t.Fatal(err)
			}
			dropped, bytes := m.open()
			if st := s.Stats(); st.Entries != len(m.mem) || st.Dropped != dropped || st.Bytes != bytes {
				t.Fatalf("reopened: %d entries, %d dropped, %d bytes; the model: %d, %d, %d",
					st.Entries, st.Dropped, st.Bytes, len(m.mem), dropped, bytes)
			}
			for b := 0; b < 48; b++ {
				checkGet(t, s, m, fuzzKey(byte(b)))
			}
		}
		reopen()
		defer func() {
			if s != nil {
				s.Close()
			}
		}()
		for ; len(ops) >= 4; ops = ops[4:] {
			a, b, c := ops[1], ops[2], ops[3]
			switch ops[0] % 6 {
			case 0, 1:
				k, v := fuzzKey(a), float64(b)+float64(c)/256
				s.Put(k, v)
				m.put(k, v, segBytes)
				checkGet(t, s, m, k)
			case 2, 3:
				checkGet(t, s, m, fuzzKey(a))
			case 4:
				reopen()
			case 5:
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				s = nil
				if len(m.segs) > 0 {
					damage(t, dir, m, int(a)%len(m.segs), b, c)
				}
				reopen()
			}
		}
	})
}

func checkGet(t *testing.T, s *Store, m *storeModel, k Key) {
	t.Helper()
	v, ok := s.Get(k)
	want, wantOK := m.mem[k]
	if ok != wantOK || math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("Get(%x) = %v,%v; the model holds %v,%v", k[:1], v, ok, want, wantOK)
	}
}

// damage flips a byte of a verified record of segment i (b odd) or cuts
// 1 to 44 bytes off its end (b even), header kept, and updates m.
func damage(t *testing.T, dir string, m *storeModel, i int, b, c byte) {
	t.Helper()
	seg := m.segs[i]
	path := segPath(dir, i+1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != segHeaderSize+seg.bodyLen() {
		t.Fatalf("segment %d is %d bytes, the model says %d", i+1, len(raw), segHeaderSize+seg.bodyLen())
	}
	if b%2 == 1 {
		for j := range seg.recs {
			r := &seg.recs[(j+int(c))%len(seg.recs)]
			if r.ok {
				o := segHeaderSize + (j+int(c))%len(seg.recs)*recordSize + int(c)%recordSize
				raw[o] ^= b
				r.ok = false
				break
			}
		}
	} else if cut := 1 + int(c)%recordSize; cut <= seg.bodyLen() {
		raw = raw[:len(raw)-cut]
		n := seg.bodyLen() - cut
		seg.recs, seg.tail = seg.recs[:n/recordSize], n%recordSize
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
