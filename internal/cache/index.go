package cache

import (
	"encoding/binary"
	"math"
)

// entrySize is one served score in memory: a segment record without
// its CRC, key[32] | value float64 LE [8].
const entrySize = 32 + 8

// index is every score a Store serves: recs holds the entries back to
// back, in the order they were admitted, and slots is an open-addressed
// (linear probing) table over them — slot value e > 0 names entry e-1, 0
// is an empty slot. The table is a power of two at most half full, so
// a probe run stays short; a miss ends at the first empty slot.
//
// At Open, recs is the buffer the segments were read into: each record
// that passes its CRC is compacted in place to its first 40 bytes, so the
// bytes read are the index and nothing is copied into a second
// structure (see scanSegment). Entry numbers are uint32, so an index
// holds fewer than 2^32-1 entries (160 GB of them).
type index struct {
	recs  []byte
	slots []uint32
	shift uint // 64 - log2(len(slots)): a hash's top bits pick its home slot
}

// newIndex returns an empty index whose recs can take capBytes without
// growing and whose table holds n entries before it doubles.
func newIndex(capBytes, n int) index {
	size, shift := 16, uint(64-4)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	return index{recs: make([]byte, 0, capBytes), slots: make([]uint32, size), shift: shift}
}

func (x *index) len() int { return len(x.recs) / entrySize }

// home is the first probe slot of the key whose words are w. Every word
// is multiplied in, then the sum is folded and multiplied again, so keys
// that differ in any one word — or only in low bits, as structured test
// keys do — land far apart.
func (x *index) home(w *[4]uint64) int {
	h := w[0]*0x9e3779b97f4a7c15 + w[1]*0xc2b2ae3d27d4eb4f + w[2]*0x165667b19e3779f9 + w[3]*0xd6e8feb86659fd93
	h ^= h >> 32
	h *= 0x94d049bb133111eb
	return int(h >> x.shift)
}

// keyWords reads a key's 32 bytes as the four words home hashes and
// find compares, a word at a time so a miss stops at the first that
// differs.
func keyWords(k []byte) [4]uint64 {
	_ = k[31]
	return [4]uint64{
		binary.LittleEndian.Uint64(k[0:]), binary.LittleEndian.Uint64(k[8:]),
		binary.LittleEndian.Uint64(k[16:]), binary.LittleEndian.Uint64(k[24:]),
	}
}

// find returns the entry holding key k, or -1 and the empty slot where k
// would go.
func (x *index) find(k []byte) (entry, slot int) {
	w := keyWords(k)
	mask := len(x.slots) - 1
	for p := x.home(&w); ; p = (p + 1) & mask {
		e := int(x.slots[p])
		if e == 0 {
			return -1, p
		}
		r := x.recs[(e-1)*entrySize : e*entrySize]
		if binary.LittleEndian.Uint64(r[0:]) == w[0] && binary.LittleEndian.Uint64(r[8:]) == w[1] &&
			binary.LittleEndian.Uint64(r[16:]) == w[2] && binary.LittleEndian.Uint64(r[24:]) == w[3] {
			return e - 1, p
		}
	}
}

// get returns k's value.
func (x *index) get(k *Key) (float64, bool) {
	e, _ := x.find(k[:])
	if e < 0 {
		return 0, false
	}
	o := e*entrySize + 32
	return math.Float64frombits(binary.LittleEndian.Uint64(x.recs[o : o+8])), true
}

// add appends k's entry unless k is already held, reporting whether it
// did: the first value recorded for a key wins.
func (x *index) add(k Key, v float64) bool {
	e, slot := x.find(k[:])
	if e >= 0 {
		return false
	}
	x.recs = append(x.recs, k[:]...)
	x.recs = binary.LittleEndian.AppendUint64(x.recs, math.Float64bits(v))
	x.insertLast(slot)
	return true
}

// admitLast indexes the entry at the end of recs. When its key is
// already held, the held entry takes its value and the new entry is
// dropped from recs: a later record wins, and an entry exists once.
func (x *index) admitLast() {
	last := len(x.recs) - entrySize
	if e, slot := x.find(x.recs[last : last+32]); e >= 0 {
		copy(x.recs[e*entrySize+32:(e+1)*entrySize], x.recs[last+32:])
		x.recs = x.recs[:last]
	} else {
		x.insertLast(slot)
	}
}

// insertLast points the empty slot at the last entry of recs, doubling
// the table once it is more than half full.
func (x *index) insertLast(slot int) {
	x.slots[slot] = uint32(x.len())
	if 2*x.len() > len(x.slots) {
		x.grow()
	}
}

// grow doubles the table and re-inserts every entry, in entry order.
func (x *index) grow() {
	x.slots = make([]uint32, 2*len(x.slots))
	x.shift--
	mask := len(x.slots) - 1
	for e := 0; e < x.len(); e++ {
		w := keyWords(x.recs[e*entrySize:])
		p := x.home(&w)
		for x.slots[p] != 0 {
			p = (p + 1) & mask
		}
		x.slots[p] = uint32(e + 1)
	}
}
