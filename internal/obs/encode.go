package obs

import (
	"math"
	"strconv"
)

// Journal lines are hand-encoded: encoding/json would box every value
// in an interface and walk reflection on the hot path. These helpers —
// and jsonline.AppendString for strings, which writes json.Marshal's
// bytes — append into the recorder's reused buffer and allocate nothing
// (the buffer only grows until the longest line fits).

func appendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

// appendFloat appends v as a JSON number, or null for the non-finite
// values JSON cannot carry.
func appendFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
