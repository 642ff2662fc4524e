// Typed payload encoding for artifact records. Every value is written with
// a one-byte type tag (and a length prefix for vectors), so a decoder
// reading a payload against the wrong schema fails deterministically
// instead of misinterpreting bytes. Floats round-trip by exact bit pattern:
// a cached verification quantity must compare bit-identical to the freshly
// computed one.

package artifact

import (
	"encoding/binary"
	"errors"
	"math"
)

// Value type tags.
const (
	tagUint  byte = 'U'
	tagFloat byte = 'F'
	tagBool  byte = 'B'
	tagStr   byte = 'S'
	tagF64s  byte = 'V'
)

// ErrRecord is returned (via Dec.Err) for any malformed record payload.
var ErrRecord = errors.New("artifact: malformed record")

// Enc builds a record payload.
type Enc struct {
	b []byte
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.b }

func (e *Enc) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.b = append(e.b, b[:]...)
}

// Uint appends an unsigned integer.
func (e *Enc) Uint(v uint64) *Enc {
	e.b = append(e.b, tagUint)
	e.u64(v)
	return e
}

// Int appends a signed integer.
func (e *Enc) Int(v int) *Enc { return e.Uint(uint64(int64(v))) }

// Float appends a float64 by bit pattern.
func (e *Enc) Float(v float64) *Enc {
	e.b = append(e.b, tagFloat)
	e.u64(math.Float64bits(v))
	return e
}

// Bool appends a boolean.
func (e *Enc) Bool(v bool) *Enc {
	e.b = append(e.b, tagBool)
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
	return e
}

// Str appends a string.
func (e *Enc) Str(s string) *Enc {
	e.b = append(e.b, tagStr)
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
	return e
}

// Floats appends a float64 vector.
func (e *Enc) Floats(v []float64) *Enc {
	e.b = append(e.b, tagF64s)
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(math.Float64bits(x))
	}
	return e
}

// Dec reads a record payload back. All reads after the first error return
// zero values; callers check Err once at the end. Length prefixes are
// validated against the remaining payload before any allocation, so a
// corrupt record can neither panic nor balloon memory.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the first decode error (nil for a clean read). Decoders that
// finished with trailing bytes are also malformed; call Close to check.
func (d *Dec) Err() error { return d.err }

// Close marks trailing unread bytes as an error and returns Err.
func (d *Dec) Close() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = ErrRecord
	}
	return d.err
}

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrRecord
	}
}

func (d *Dec) tag(want byte) bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) || d.b[d.off] != want {
		d.fail()
		return false
	}
	d.off++
	return true
}

func (d *Dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// Uint reads an unsigned integer.
func (d *Dec) Uint() uint64 {
	if !d.tag(tagUint) {
		return 0
	}
	return d.u64()
}

// Int reads a signed integer.
func (d *Dec) Int() int { return int(int64(d.Uint())) }

// Float reads a float64.
func (d *Dec) Float() float64 {
	if !d.tag(tagFloat) {
		return 0
	}
	return math.Float64frombits(d.u64())
}

// Bool reads a boolean.
func (d *Dec) Bool() bool {
	if !d.tag(tagBool) {
		return false
	}
	if d.off >= len(d.b) {
		d.fail()
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail()
		return false
	}
	return v == 1
}

// Str reads a string.
func (d *Dec) Str() string {
	if !d.tag(tagStr) {
		return ""
	}
	n := d.u64()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Floats reads a float64 vector.
func (d *Dec) Floats() []float64 {
	if !d.tag(tagF64s) {
		return nil
	}
	n := d.u64()
	// Divide, don't multiply: n*8 overflows uint64 for hostile lengths.
	if d.err != nil || n > uint64(len(d.b)-d.off)/8 {
		d.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
	return out
}
