// Package jsonline is the hand codec of the repo's durable JSON lines:
// checkpoint manifest entries and spec.json (internal/job), coordinator
// WAL records (internal/grid) and score vectors (dsa.JSONFloats, in
// manifests and on the grid wire). It uses no reflection and has three
// primitives:
//
//   - an append encoder (AppendString, AppendFloat, AppendFloats) whose
//     bytes are exactly encoding/json's, so a line written by hand is the
//     line json.Marshal writes for the same struct;
//   - Object, a one-pass scanner over one JSON object: the caller
//     switches on each key and reads its value with a typed reader;
//   - a float-list scanner (ParseFloats, Object.Floats).
//
// Each format's field layout stays with its owner package. The decoder
// accepts what encoding/json accepts for such a layout — JSON whitespace
// anywhere between tokens, keys in any order or repeated (the last one
// wins), escaped strings (invalid UTF-8 and lone surrogates become
// U+FFFD), unknown keys with any value nested up to encoding/json's depth
// limit — and refuses everything encoding/json refuses. It also refuses
// two forms encoding/json takes: null in place of a value, and a key that
// matches a field only case-insensitively.
package jsonline

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit, the outermost value
// counted as depth 1.
const maxDepth = 10000

const hexDigits = "0123456789abcdef"

// htmlSafe[c] reports whether ASCII byte c stands for itself inside a
// string json.Marshal writes.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string exactly as json.Marshal writes
// it: '"' and '\\' backslash-escaped, control bytes as \b \f \n \r \t or
// \u00XX, '<' '>' '&' and U+2028/U+2029 as \u escapes, and each byte of
// invalid UTF-8 as \ufffd.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends finite f as json.Marshal writes a float64: the
// shortest digits that read back to f, in 'f' form for 0 and
// 1e-6 <= |f| < 1e21 and in 'e' form otherwise, a one-digit negative
// exponent without its leading zero (1e-7, not 1e-07).
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendFloats appends vals as a JSON array: finite values as
// AppendFloat writes them, NaN and ±Inf as the strings "NaN", "+Inf" and
// "-Inf" (encoding/json has no number for them; these are the score
// tokens of dsa's CSV codec).
func AppendFloats(b []byte, vals []float64) []byte {
	b = append(b, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case math.IsNaN(v):
			b = append(b, `"NaN"`...)
		case math.IsInf(v, 1):
			b = append(b, `"+Inf"`...)
		case math.IsInf(v, -1):
			b = append(b, `"-Inf"`...)
		default:
			b = AppendFloat(b, v)
		}
	}
	return append(b, ']')
}

// ParseFloats decodes a JSON array of numbers and score tokens, the
// bytes AppendFloats writes, with JSON whitespace around and between its
// tokens (an HTTP body hands it what the client sent). A number must
// match JSON's grammar before strconv.ParseFloat sees it, and one beyond
// float64's range is refused, as encoding/json refuses it. An empty
// array decodes to an empty, non-nil slice.
func ParseFloats(data []byte) ([]float64, error) {
	c := cursor{data: data}
	c.ws()
	vals, ok := c.floats()
	c.ws()
	if !ok || c.i != len(data) {
		return nil, fmt.Errorf("jsonline: malformed score list near byte %d of %d", c.i, len(data))
	}
	return vals, nil
}

// Object scans one flat JSON object, one key and its value at a time:
//
//	o := jsonline.NewObject(line)
//	for o.Next() {
//		switch string(o.Key()) {
//		case "task":
//			e.Task = o.String()
//		default:
//			o.Skip(keys...)
//		}
//	}
//	ok := o.End()
//
// Each key Next returns must be followed by exactly one value read. A
// syntax error or a value of the wrong type stops Next and
// makes End false; a reader that fails returns its zero value.
type Object struct {
	cursor
	key    []byte
	fields int
	closed bool
	failed bool
}

// NewObject starts scanning data, which must hold one JSON object and
// nothing else but whitespace.
func NewObject(data []byte) Object {
	o := Object{cursor: cursor{data: data}}
	o.ws()
	if !o.eat('{') {
		o.failed = true
	}
	return o
}

// Next advances to the next key. It returns false at the closing brace
// and on any error.
func (o *Object) Next() bool {
	if o.failed || o.closed {
		return false
	}
	o.ws()
	if o.eat('}') {
		o.closed = true
		return false
	}
	if o.fields > 0 {
		if !o.eat(',') {
			return o.fail()
		}
		o.ws()
	}
	key, ok := o.str()
	if !ok {
		return o.fail()
	}
	o.ws()
	if !o.eat(':') {
		return o.fail()
	}
	o.ws()
	o.key = key
	o.fields++
	return true
}

// Key is the current key, unescaped; it is valid until the value is read.
func (o *Object) Key() []byte { return o.key }

// fail marks the object refused. It returns false, for Next.
func (o *Object) fail() bool {
	o.failed = true
	return false
}

// End reports whether the whole object was read without error and only
// whitespace follows it.
func (o *Object) End() bool {
	if o.failed || !o.closed {
		return false
	}
	o.ws()
	return o.i == len(o.data)
}

// String reads a string value.
func (o *Object) String() string {
	s, ok := o.str()
	if !ok {
		o.fail()
		return ""
	}
	return string(s)
}

// Bytes reads a string value as String does, without a copy where it
// can: a slice of the object's data when the string holds no escape and
// only valid UTF-8, a copy of its unescaped bytes otherwise.
func (o *Object) Bytes() []byte {
	start := o.i
	s, ok := o.str()
	if !ok {
		o.fail()
		return nil
	}
	if len(s) > 0 && &s[0] != &o.data[start+1] {
		s = bytes.Clone(s)
	}
	return s
}

// Int reads an integer value that fits bitSize bits: a JSON number with
// no fraction and no exponent, as encoding/json reads one into an int.
func (o *Object) Int(bitSize int) int64 {
	n, ok := o.int(bitSize)
	if !ok {
		o.fail()
	}
	return n
}

// Uint32 reads an unsigned integer value below 1<<32.
func (o *Object) Uint32() uint32 {
	tok, _ := o.num() // nil when malformed, which ParseUint refuses
	n, err := strconv.ParseUint(string(tok), 10, 32)
	if err != nil {
		o.fail()
		return 0
	}
	return uint32(n)
}

// Float reads a number value, as encoding/json reads one into a float64.
func (o *Object) Float() float64 {
	v, ok := o.float()
	if !ok {
		o.fail()
	}
	return v
}

// Bool reads true or false.
func (o *Object) Bool() bool {
	switch {
	case o.lit("true"):
		return true
	case o.lit("false"):
		return false
	}
	o.fail()
	return false
}

// Floats reads a score list, as ParseFloats does.
func (o *Object) Floats() []float64 {
	vals, ok := o.floats()
	if !ok {
		o.fail()
		return nil
	}
	return vals
}

// Ints reads a list of integers, each as Int(strconv.IntSize) reads one.
// Like every list reader it reads [] as an empty, non-nil slice, as
// encoding/json does.
func (o *Object) Ints() []int {
	out := make([]int, 0, o.count())
	if !o.array(func() bool {
		n, ok := o.int(strconv.IntSize)
		out = append(out, int(n))
		return ok
	}) {
		o.fail()
		return nil
	}
	return out
}

// Strings reads a list of strings.
func (o *Object) Strings() []string {
	out := make([]string, 0, o.count())
	if !o.array(func() bool {
		s, ok := o.str()
		out = append(out, string(s))
		return ok
	}) {
		o.fail()
		return nil
	}
	return out
}

// Raw reads a value of any kind and returns its exact bytes.
func (o *Object) Raw() []byte {
	start := o.i
	if !o.skip(1) {
		o.fail()
		return nil
	}
	return o.data[start:o.i]
}

// Skip steps over the value of a key the caller has no field for. A key
// that equals one of known case-insensitively fails the object:
// encoding/json would have read it into that field.
func (o *Object) Skip(known ...string) {
	for _, k := range known {
		if bytes.EqualFold(o.key, []byte(k)) {
			o.fail()
			return
		}
	}
	o.Raw()
}

// cursor is a position in JSON bytes and the scratch an escaped string
// is unquoted into.
type cursor struct {
	data []byte
	i    int
	buf  []byte
}

func (c *cursor) ws() {
	for c.i < len(c.data) {
		switch c.data[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// eat consumes b if it is next.
func (c *cursor) eat(b byte) bool {
	if c.i < len(c.data) && c.data[c.i] == b {
		c.i++
		return true
	}
	return false
}

// lit consumes the literal s if it is next.
func (c *cursor) lit(s string) bool {
	if !bytes.HasPrefix(c.data[c.i:], []byte(s)) {
		return false
	}
	c.i += len(s)
	return true
}

// str reads a JSON string and returns its unescaped bytes: a slice of
// data when the string holds no escape and only valid UTF-8, of c.buf
// (valid until the next string) otherwise.
func (c *cursor) str() ([]byte, bool) {
	if !c.eat('"') {
		return nil, false
	}
	d, start := c.data, c.i
	for i := start; i < len(d); {
		switch ch := d[i]; {
		case ch == '"':
			c.i = i + 1
			return d[start:i], true
		case ch == '\\' || ch < ' ':
			return c.unquote(start, i)
		case ch < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && n == 1 {
				return c.unquote(start, i)
			}
			i += n
		}
	}
	return nil, false
}

// unquote finishes a string from i, whose plain prefix starts at start,
// into c.buf, as encoding/json unquotes one.
func (c *cursor) unquote(start, i int) ([]byte, bool) {
	d := c.data
	b := append(c.buf[:0], d[start:i]...)
	defer func() { c.buf = b[:0] }()
	for i < len(d) {
		switch ch := d[i]; {
		case ch == '"':
			c.i = i + 1
			return b, true
		case ch < ' ':
			return nil, false
		case ch == '\\':
			if i+1 == len(d) {
				return nil, false
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := u4(d[i:])
				if r < 0 {
					return nil, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; anything else is U+FFFD
					// and the next escape stands on its own.
					if dec := utf16.DecodeRune(r, u4(d[i:])); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, false
			}
			i += 2
		case ch < utf8.RuneSelf:
			b = append(b, ch)
			i++
		default:
			r, n := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return nil, false
}

// u4 decodes the escape \uXXXX at the start of s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, h := range s[2:6] {
		switch {
		case '0' <= h && h <= '9':
			h -= '0'
		case 'a' <= h && h <= 'f':
			h -= 'a' - 10
		case 'A' <= h && h <= 'F':
			h -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(h)
	}
	return r
}

// num reads a number token of JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (c *cursor) num() ([]byte, bool) {
	d, i := c.data, c.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return nil, false
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); d[i-1] == '.' {
			return nil, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	tok := d[c.i:i]
	c.i = i
	return tok, true
}

func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// int reads an integer of bitSize bits; it is 0 when not ok.
func (c *cursor) int(bitSize int) (int64, bool) {
	tok, _ := c.num() // nil when malformed, which ParseInt refuses
	n, err := strconv.ParseInt(string(tok), 10, bitSize)
	if err != nil {
		return 0, false
	}
	return n, true
}

// float reads a number as a float64; one beyond its range is refused.
func (c *cursor) float() (float64, bool) {
	tok, _ := c.num() // nil when malformed, which ParseFloat refuses
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// count is the capacity of the list at c: one value per comma before the
// next ']', and one more. It is exact for a list of numbers; a comma or
// bracket inside a string only costs a regrowth.
func (c *cursor) count() int {
	end := bytes.IndexByte(c.data[c.i:], ']')
	if end < 0 {
		return 0
	}
	return bytes.Count(c.data[c.i:c.i+end], []byte{','}) + 1
}

// array reads a JSON array, each element by one call of elem, which
// reports whether it read one.
func (c *cursor) array(elem func() bool) bool {
	if !c.eat('[') {
		return false
	}
	c.ws()
	if c.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		c.ws()
		if c.eat(']') {
			return true
		}
		if !c.eat(',') {
			return false
		}
		c.ws()
	}
}

// floats reads a score list.
func (c *cursor) floats() ([]float64, bool) {
	out := make([]float64, 0, c.count())
	if !c.array(func() bool {
		v, ok := c.score()
		out = append(out, v)
		return ok
	}) {
		return nil, false
	}
	return out, true
}

// score reads one number or score token.
func (c *cursor) score() (float64, bool) {
	if c.i < len(c.data) && c.data[c.i] == '"' {
		s, _ := c.str() // nil when malformed, which is no token
		switch string(s) {
		case "NaN":
			return math.NaN(), true
		case "+Inf":
			return math.Inf(1), true
		case "-Inf":
			return math.Inf(-1), true
		}
		return 0, false
	}
	return c.float()
}

// skip steps over one value of any kind, checking its syntax; depth is
// the nesting depth of the container it sits in.
func (c *cursor) skip(depth int) bool {
	if c.i == len(c.data) {
		return false
	}
	switch c.data[c.i] {
	case '"':
		_, ok := c.str()
		return ok
	case 't':
		return c.lit("true")
	case 'f':
		return c.lit("false")
	case 'n':
		return c.lit("null")
	case '{', '[':
		return c.skipContainer(depth + 1)
	}
	_, ok := c.num()
	return ok
}

// skipContainer steps over an object or array at nesting depth depth.
func (c *cursor) skipContainer(depth int) bool {
	if depth > maxDepth {
		return false
	}
	closing := byte(']')
	if c.data[c.i] == '{' {
		closing = '}'
	}
	c.i++
	c.ws()
	if c.eat(closing) {
		return true
	}
	for {
		if closing == '}' {
			if _, ok := c.str(); !ok {
				return false
			}
			c.ws()
			if !c.eat(':') {
				return false
			}
			c.ws()
		}
		if !c.skip(depth) {
			return false
		}
		c.ws()
		if c.eat(closing) {
			return true
		}
		if !c.eat(',') {
			return false
		}
		c.ws()
	}
}
