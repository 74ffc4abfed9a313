package dsa

// JSONFloats against encoding/json, the oracle: oracleFloats and
// oracleMarshal are the reflection codec JSONFloats had before
// internal/jsonline (a []json.RawMessage pass, then each value as a
// float64 or a score token; json.Marshal per finite value).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func oracleFloats(raw []byte) ([]float64, error) {
	var mixed []json.RawMessage
	if err := json.Unmarshal(raw, &mixed); err != nil {
		return nil, err
	}
	out := make([]float64, len(mixed))
	for i, m := range mixed {
		if err := json.Unmarshal(m, &out[i]); err == nil {
			continue
		}
		var s string
		if err := json.Unmarshal(m, &s); err != nil {
			return nil, fmt.Errorf("value %d is neither a number nor a token: %s", i, m)
		}
		switch s {
		case "NaN":
			out[i] = math.NaN()
		case "+Inf":
			out[i] = math.Inf(1)
		case "-Inf":
			out[i] = math.Inf(-1)
		default:
			return nil, fmt.Errorf("unknown score token %q at index %d", s, i)
		}
	}
	return out, nil
}

func oracleMarshal(vals []float64) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(',')
		}
		switch {
		case math.IsNaN(v):
			b.WriteString(`"NaN"`)
		case math.IsInf(v, 1):
			b.WriteString(`"+Inf"`)
		case math.IsInf(v, -1):
			b.WriteString(`"-Inf"`)
		default:
			num, err := json.Marshal(v)
			if err != nil {
				panic(err)
			}
			b.Write(num)
		}
	}
	b.WriteByte(']')
	return b.Bytes()
}

// sameFloats compares bit for bit (−0 is not 0); the codec and the
// oracle both decode the NaN token to math.NaN().
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hasNullValue reports whether raw holds a null token outside a string:
// the one form the codec refuses that the oracle reads (the list as
// empty, an element as 0).
func hasNullValue(raw []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if tok == nil {
			return true
		}
	}
}

// TestJSONFloatsRefusesNull lists what the codec refuses that the oracle
// reads: null for the list or for a value.
func TestJSONFloatsRefusesNull(t *testing.T) {
	for _, raw := range []string{`null`, `[1,null]`, ` [ null ] `} {
		if _, err := oracleFloats([]byte(raw)); err != nil {
			t.Errorf("the oracle refuses %s: %v", raw, err)
		}
		var f JSONFloats
		if err := f.UnmarshalJSON([]byte(raw)); err == nil {
			t.Errorf("the codec reads %s as %v", raw, f)
		}
		if !hasNullValue([]byte(raw)) {
			t.Errorf("%s is not named", raw)
		}
	}
}

// FuzzJSONFloats: the codec never accepts a list the oracle refuses,
// never reads other float bits from one both accept (−0 and NaN
// included), refuses one the oracle accepts only for a null, re-encodes
// what it accepts to the oracle's bytes, and writes and reads back every
// vector as the oracle does.
func FuzzJSONFloats(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "grid", "testdata", "commit.golden"))
	if err != nil {
		f.Fatal(err)
	}
	edges := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, line := range bytes.Split(golden, []byte("\n")) {
		if _, vals, ok := bytes.Cut(line, []byte(`"values":`)); ok {
			if end := bytes.IndexByte(vals, ']'); end >= 0 {
				f.Add(vals[:end+1], uint64(0), uint64(0), uint64(0))
			}
		}
	}
	for i := 0; i+2 < len(edges); i++ {
		f.Add(oracleMarshal(edges[i:i+3]), math.Float64bits(edges[i]), math.Float64bits(edges[i+1]), math.Float64bits(edges[i+2]))
	}
	for _, raw := range []string{"[]", ` [ 1 , "NaN" ,-0.0e0]`, `["NaN"]`, `[1e400]`, `[1e-400]`, `["Inf"]`, `[01]`, `[1,]`, `null`, `[null]`} {
		f.Add([]byte(raw), uint64(0), uint64(0), uint64(0))
	}
	f.Fuzz(func(t *testing.T, raw []byte, a, b, c uint64) {
		var got JSONFloats
		err := got.UnmarshalJSON(raw)
		want, wantErr := oracleFloats(raw)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("codec reads %q as %v, the oracle refuses it: %v", raw, got, wantErr)
		case err == nil && !sameFloats(got, want):
			t.Fatalf("codec reads %q as %v, the oracle as %v", raw, got, want)
		case err != nil && wantErr == nil && !hasNullValue(raw):
			t.Fatalf("codec refuses %q, which the oracle reads as %v: %v", raw, want, err)
		case err == nil:
			if canon, _ := got.MarshalJSON(); !bytes.Equal(canon, oracleMarshal(got)) {
				t.Fatalf("%v re-encodes to %s, the oracle writes %s", got, canon, oracleMarshal(got))
			}
		}

		vals := JSONFloats{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)}
		written := oracleMarshal(vals)
		if mine, _ := vals.MarshalJSON(); !bytes.Equal(mine, written) {
			t.Fatalf("%v: the codec writes %s, the oracle %s", vals, mine, written)
		}
		var back JSONFloats
		want, _ = oracleFloats(written)
		if err := back.UnmarshalJSON(written); err != nil || !sameFloats(back, want) {
			t.Fatalf("the old writer's %s reads back as %v (%v), the oracle's %v", written, back, err, want)
		}
	})
}
