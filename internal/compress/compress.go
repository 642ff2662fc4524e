// Package compress defines the codec interface shared by every compression
// method in the study, a registry of the paper's nine evaluated variants
// (GRIB2, APAX-2/4/5, fpzip-24/16, ISABELA-0.1/0.5/1.0) plus the lossless
// options, and a wrapper that adds special-value (fill) support to codecs
// that lack it — the capability the paper notes is missing from fpzip,
// APAX and ISABELA (Table 1).
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Shape carries the grid dimensions of the data being compressed. Codecs
// that exploit spatial structure (fpzip's Lorenzo predictor, GRIB2's 2-D
// wavelet) interpret the data as NLev slabs of NLat×NLon points.
type Shape struct {
	NLev, NLat, NLon int
}

// Len returns the number of values implied by the shape.
func (s Shape) Len() int { return s.NLev * s.NLat * s.NLon }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.NLev > 0 && s.NLat > 0 && s.NLon > 0 }

// Codec compresses and reconstructs float32 climate fields.
type Codec interface {
	// Name identifies the codec variant, e.g. "fpzip-24".
	Name() string
	// Lossless reports whether reconstruction is bit exact.
	Lossless() bool
	// Compress packs data (of the given shape) into a self-describing
	// byte stream.
	Compress(data []float32, shape Shape) ([]byte, error)
	// Decompress reconstructs the values from a stream produced by
	// Compress.
	Decompress(buf []byte) ([]float32, error)
}

// Codec64 is implemented by codecs that natively handle double-precision
// data (fpzip and APAX per the paper's Table 1). Their Codec methods remain
// usable for float32 data.
type Codec64 interface {
	Codec
	Compress64(data []float64, shape Shape) ([]byte, error)
	Decompress64(buf []byte) ([]float64, error)
}

// ErrCorrupt is returned when a compressed stream fails validation.
var ErrCorrupt = errors.New("compress: corrupt stream")

// Header is the common frame every codec payload starts with.
type Header struct {
	CodecID byte
	Shape   Shape
}

// Codec IDs used in stream headers.
const (
	IDNCLossless byte = 1
	IDFPZip      byte = 2
	IDAPAX       byte = 3
	IDISABELA    byte = 4
	IDGRIB2      byte = 5
	IDFillMask   byte = 6
	IDRaw        byte = 7
	// 8 was the retired chunked parallel container; do not reuse it.
	IDRaw64  byte = 9
	IDTsBlob byte = 10
)

// headerSize is the encoded size of a Header.
const headerSize = 1 + 3*4

// PutHeader appends the encoded header to dst.
func PutHeader(dst []byte, h Header) []byte {
	dst = append(dst, h.CodecID)
	var tmp [12]byte
	binary.LittleEndian.PutUint32(tmp[0:], uint32(h.Shape.NLev))
	binary.LittleEndian.PutUint32(tmp[4:], uint32(h.Shape.NLat))
	binary.LittleEndian.PutUint32(tmp[8:], uint32(h.Shape.NLon))
	return append(dst, tmp[:]...)
}

// ParseHeader decodes a header and returns the remaining payload.
func ParseHeader(buf []byte) (Header, []byte, error) {
	if len(buf) < headerSize {
		return Header{}, nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	h := Header{CodecID: buf[0]}
	h.Shape.NLev = int(binary.LittleEndian.Uint32(buf[1:]))
	h.Shape.NLat = int(binary.LittleEndian.Uint32(buf[5:]))
	h.Shape.NLon = int(binary.LittleEndian.Uint32(buf[9:]))
	// 2^28 values (1 GiB of float32) comfortably covers any climate field
	// while bounding the work a tampered header can demand. Each dimension
	// is checked before multiplying so the product cannot overflow int.
	const maxLen = 1 << 28
	if !h.Shape.Valid() ||
		h.Shape.NLev > maxLen || h.Shape.NLat > maxLen || h.Shape.NLon > maxLen ||
		h.Shape.NLev*h.Shape.NLat > maxLen ||
		h.Shape.NLev*h.Shape.NLat*h.Shape.NLon > maxLen {
		return Header{}, nil, fmt.Errorf("%w: bad shape %+v", ErrCorrupt, h.Shape)
	}
	return h, buf[headerSize:], nil
}

// CheckPlausible rejects streams whose payload is too small to plausibly
// encode n values (below ~0.03 bits per value, far beyond any codec here).
// It bounds the work a tampered header can demand from a decoder.
func CheckPlausible(n, payloadLen int) error {
	if payloadLen < n/256 {
		return fmt.Errorf("%w: %d-byte payload cannot encode %d values", ErrCorrupt, payloadLen, n)
	}
	return nil
}

// Ratio returns the paper's compression ratio (eq. 1): compressed size over
// original size, so smaller is better and 1.0 means no compression.
func Ratio(compressed int, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return float64(compressed) / float64(4*n)
}

// Properties describes a codec for the paper's Table 1.
type Properties struct {
	Method        string
	LosslessMode  bool // has a lossless mode
	SpecialValues bool // natively handles special/missing values
	FreelyAvail   bool // (of the original software) freely available
	FixedQuality  bool // can fix quality, varying rate
	FixedRate     bool // can fix rate, varying quality
	Bits32And64   bool // handles both 32- and 64-bit data
}

// factory builds a codec variant by registered name.
type factory func() Codec

var registry = map[string]factory{}

// Register adds a codec variant to the global registry. It panics on
// duplicate names (a programming error).
func Register(name string, f factory) {
	if _, dup := registry[name]; dup {
		panic("compress: duplicate codec " + name)
	}
	registry[name] = f
}

// New returns a fresh codec by registered name.
func New(name string) (Codec, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
	return f(), nil
}

// Names returns all registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
