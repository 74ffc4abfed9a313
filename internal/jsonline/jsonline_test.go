package jsonline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestAppendFloatMatchesMarshal pins the encoder at every formatting
// boundary of encoding/json's float64: one row each, the bytes equal to
// json.Marshal's. NaN and ±Inf have no JSON number; their rows are the
// score tokens, json.Marshal's bytes for those strings.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"zero", 0},
		{"negative zero", math.Copysign(0, -1)},
		{"1e-6, the 'f' form's lower cut-off", 1e-6},
		{"the float below 1e-6", math.Nextafter(1e-6, 0)},
		{"1e21, the 'e' form's upper cut-off", 1e21},
		{"the float below 1e21", math.Nextafter(1e21, 0)},
		{"5e-324, the smallest subnormal", 5e-324},
		{"MaxFloat64", math.MaxFloat64},
		{"-MaxFloat64", -math.MaxFloat64},
		{"a negative exponent of one digit", 1e-7},
		{"a negative exponent of two digits", 1.5e-17},
		{"a fraction", 0.1},
		{"an integer", -123456},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(row.name, func(t *testing.T) {
			var want []byte
			var err error
			switch {
			case math.IsNaN(row.v):
				want, err = json.Marshal([]string{"NaN"})
			case math.IsInf(row.v, 1):
				want, err = json.Marshal([]string{"+Inf"})
			case math.IsInf(row.v, -1):
				want, err = json.Marshal([]string{"-Inf"})
			default:
				want, err = json.Marshal([]float64{row.v})
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendFloats(nil, []float64{row.v}); !bytes.Equal(got, want) {
				t.Fatalf("AppendFloats(%v) = %s, json.Marshal writes %s", row.v, got, want)
			}
			back, err := ParseFloats(want)
			if err != nil || len(back) != 1 || !sameBits(back[0], row.v) {
				t.Fatalf("ParseFloats(%s) = %v, %v; want %v", want, back, err, row.v)
			}
		})
	}
}

// sameBits compares floats bit for bit, every NaN equal to every NaN
// (the tokens carry no payload).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestAppendStringMatchesMarshal pins the string encoder, one row per
// escaping rule of encoding/json (HTML escaping on, as json.Marshal
// has it), then every single byte.
func TestAppendStringMatchesMarshal(t *testing.T) {
	rows := []struct{ name, s string }{
		{"plain", "coverage-00000-00001"},
		{"empty", ""},
		{"quote and backslash", `a"b\c`},
		{"HTML", "<a href=x>&amp;</a>"},
		{"control bytes", "\x00\x01\b\f\n\r\t\x1f\x7f"},
		{"U+2028 and U+2029", "line\u2028para\u2029end"},
		{"invalid UTF-8", "bad\xffutf\xc3(8\xed\xa0\x80"},
		{"non-ASCII text", "j\u00f6b-\u540d\u524d-\U0001F600"},
	}
	for c := 0; c < 256; c++ {
		rows = append(rows, struct{ name, s string }{fmt.Sprintf("byte %#02x", c), "<" + string([]byte{byte(c)}) + ">"})
	}
	for _, row := range rows {
		want, err := json.Marshal(row.s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, row.s); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendString(%q) = %s, json.Marshal writes %s", row.name, row.s, got, want)
		}
	}
}

// fields is what the test layout reads: every reader once.
type fields struct {
	S    string
	I    int64
	U    uint32
	B    bool
	F    []float64
	N    float64
	Is   []int
	Ss   []string
	Raw  []byte
	By   []byte
	Keys int
}

var testKeys = []string{"s", "i", "u", "b", "f", "n", "is", "ss", "raw", "by"}

func scanFields(line []byte) (f fields, ok bool) {
	o := NewObject(line)
	for o.Next() {
		f.Keys++
		switch string(o.Key()) {
		case "s":
			f.S = o.String()
		case "i":
			f.I = o.Int(64)
		case "u":
			f.U = o.Uint32()
		case "b":
			f.B = o.Bool()
		case "f":
			f.F = o.Floats()
		case "n":
			f.N = o.Float()
		case "is":
			f.Is = o.Ints()
		case "ss":
			f.Ss = o.Strings()
		case "raw":
			f.Raw = o.Raw()
		case "by":
			f.By = o.Bytes()
		default:
			o.Skip(testKeys...)
		}
	}
	return f, o.End()
}

// TestObjectScanner pins what the scanner accepts and refuses beside
// encoding/json's reading of the same line; the owners' fuzz targets
// (FuzzWALLine, FuzzManifestLine, FuzzJSONFloats) do the same over
// arbitrary bytes.
func TestObjectScanner(t *testing.T) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, row := range []struct {
		name, line string
		ok         bool
		want       fields
	}{
		{"every reader", `{"s":"x","i":-7,"u":4294967295,"b":true,"f":[1,"NaN",-0],"raw":{"a":[1]}}`, true,
			fields{S: "x", I: -7, U: 4294967295, B: true, F: []float64{1, math.NaN(), math.Copysign(0, -1)}, Raw: []byte(`{"a":[1]}`), Keys: 6}},
		{"whitespace everywhere", " \t{ \"s\" : \"x\" ,\r\n\"f\":[ 1 , 2 ] } \n", true, fields{S: "x", F: []float64{1, 2}, Keys: 2}},
		{"empty object", `{}`, true, fields{}},
		{"reordered keys", `{"b":false,"s":"y"}`, true, fields{S: "y", Keys: 2}},
		{"repeated key, the last wins", `{"s":"a","s":"b"}`, true, fields{S: "b", Keys: 2}},
		{"escaped key and value", `{"s":"\u00e9\ud83d\ude00\/\n"}`, true, fields{S: "\u00e9\U0001F600/\n", Keys: 1}},
		{"lone surrogate", `{"s":"\ud800x"}`, true, fields{S: "\ufffdx", Keys: 1}},
		{"invalid UTF-8 in a string", "{\"s\":\"a\xffb\"}", true, fields{S: "a\ufffdb", Keys: 1}},
		{"unknown key, nested value", `{"x":{"y":[1,{"z":null}],"w":"}"},"s":"v"}`, true, fields{S: "v", Keys: 2}},
		{"unknown key nested to the depth limit", `{"x":` + deep(maxDepth-1) + `}`, true, fields{Keys: 1}},
		{"unknown key nested past the depth limit", `{"x":` + deep(maxDepth) + `}`, false, fields{}},
		{"case-folded key", `{"S":"x"}`, false, fields{}},
		{"null value", `{"s":null}`, false, fields{}},
		{"null line", `null`, false, fields{}},
		{"trailing comma", `{"s":"x",}`, false, fields{}},
		{"trailing garbage", `{"s":"x"}x`, false, fields{}},
		{"two objects", `{}{}`, false, fields{}},
		{"unterminated", `{"s":"x"`, false, fields{}},
		{"control byte in a string", "{\"s\":\"a\x01\"}", false, fields{}},
		{"bad escape", `{"s":"\x"}`, false, fields{}},
		{"leading zero", `{"i":01}`, false, fields{}},
		{"fraction into an int", `{"i":1.0}`, false, fields{}},
		{"int overflow", `{"i":9223372036854775808}`, false, fields{}},
		{"uint32 overflow", `{"u":4294967296}`, false, fields{}},
		{"negative uint", `{"u":-0}`, false, fields{}},
		{"float overflow", `{"f":[1e309]}`, false, fields{}},
		{"unknown score token", `{"f":["Inf"]}`, false, fields{}},
		{"non-JSON number", `{"f":[+1]}`, false, fields{}},
		{"missing exponent digits", `{"f":[1e]}`, false, fields{}},
		{"a string for a bool", `{"b":"true"}`, false, fields{}},
		{"number and lists", `{"n":-1.5e-7,"is":[3,-0,9223372036854775807],"ss":["a","\u00e9",""]}`, true,
			fields{N: -1.5e-7, Is: []int{3, 0, 9223372036854775807}, Ss: []string{"a", "\u00e9", ""}, Keys: 3}},
		{"empty lists", `{"is":[],"ss":[ ]}`, true, fields{Is: []int{}, Ss: []string{}, Keys: 2}},
		{"null in an int list", `{"is":[1,null]}`, false, fields{}},
		{"a fraction in an int list", `{"is":[1.5]}`, false, fields{}},
		{"a number in a string list", `{"ss":["a",1]}`, false, fields{}},
		{"trailing comma in a list", `{"is":[1,]}`, false, fields{}},
		{"a number beyond float64", `{"n":-1e309}`, false, fields{}},
		{"a string for a number", `{"n":"1"}`, false, fields{}},
		{"bytes in place", `{"by":"m-00000-00004","s":"x"}`, true, fields{By: []byte("m-00000-00004"), S: "x", Keys: 2}},
		// The escaped value is a copy: the next escaped string reuses the scratch.
		{"escaped bytes, then an escaped string", `{"by":"m\u002d0","s":"\u00e9"}`, true, fields{By: []byte("m-0"), S: "\u00e9", Keys: 2}},
		{"a number for bytes", `{"by":1}`, false, fields{}},
	} {
		t.Run(row.name, func(t *testing.T) {
			got, ok := scanFields([]byte(row.line))
			var oracle map[string]any
			oracleOK := json.Unmarshal([]byte(row.line), &oracle) == nil
			if ok && !oracleOK {
				t.Fatalf("scanner accepts %q, encoding/json refuses it", row.line)
			}
			if ok != row.ok {
				t.Fatalf("scan(%q) ok = %v, want %v", row.line, ok, row.ok)
			}
			if !ok {
				return
			}
			if got.S != row.want.S || got.I != row.want.I || got.U != row.want.U || got.B != row.want.B ||
				got.N != row.want.N || !reflect.DeepEqual(got.Is, row.want.Is) || !reflect.DeepEqual(got.Ss, row.want.Ss) ||
				!bytes.Equal(got.Raw, row.want.Raw) || !bytes.Equal(got.By, row.want.By) || got.Keys != row.want.Keys || len(got.F) != len(row.want.F) {
				t.Fatalf("scan(%q) = %+v, want %+v", row.line, got, row.want)
			}
			for i := range got.F {
				if !sameBits(got.F[i], row.want.F[i]) {
					t.Fatalf("scan(%q) value %d = %v, want %v", row.line, i, got.F[i], row.want.F[i])
				}
			}
		})
	}
}
