package dsa

import (
	"fmt"

	"repro/internal/jsonline"
)

// JSONFloats is []float64 that survives JSON. encoding/json rejects
// NaN and ±Inf, but a domain's ScoreSlice may legitimately produce
// them (a diverging measure, a 0/0 ratio), so every JSON surface that
// carries score vectors — checkpoint manifest lines (internal/job) and
// the grid wire (internal/grid) — encodes non-finite values as the
// same canonical tokens the CSV codec uses: "NaN", "+Inf", "-Inf".
// The codec is internal/jsonline's float list: finite values are the
// bytes json.Marshal writes for a float64.
type JSONFloats []float64

func (f JSONFloats) MarshalJSON() ([]byte, error) {
	return jsonline.AppendFloats(nil, f), nil
}

func (f *JSONFloats) UnmarshalJSON(raw []byte) error {
	vals, err := jsonline.ParseFloats(raw)
	if err != nil {
		return fmt.Errorf("dsa: score vector: %w", err)
	}
	*f = vals
	return nil
}
