package compress_test

import (
	"math"
	"math/rand"
	"testing"

	"climcompress/internal/compress"
)

// TestCorruptionNeverPanics feeds every registered codec truncated and
// bit-flipped versions of its own valid streams: decoders must return an
// error or (for undetectably corrupted adaptive streams) wrong data, but
// never panic or hang. Decoded lengths, when successful, must match.
func TestCorruptionNeverPanics(t *testing.T) {
	shape := compress.Shape{NLev: 2, NLat: 12, NLon: 20}
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(25 + 10*math.Sin(float64(i)/11))
	}
	rng := rand.New(rand.NewSource(2024))

	codecs := make(map[string]compress.Codec)
	for _, name := range compress.Names() {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs[name] = c
	}

	for name, c := range codecs {
		buf, err := c.Compress(data, shape)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		decode := func(stream []byte, what string, checkLen bool) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic on %s: %v", name, what, r)
				}
			}()
			out, err := c.Decompress(stream)
			if err == nil && checkLen && len(out) != shape.Len() {
				t.Fatalf("%s: %s decoded to wrong length %d", name, what, len(out))
			}
		}
		// Truncations at assorted points.
		for _, frac := range []float64{0, 0.1, 0.3, 0.5, 0.9, 0.99} {
			n := int(frac * float64(len(buf)))
			decode(buf[:n], "truncation", true)
		}
		// Random single-byte corruptions. A flip inside the 13-byte header
		// may legitimately change the decoded shape, so the length check
		// only applies to payload corruption.
		trials := 12
		if testing.Short() {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			bad := append([]byte(nil), buf...)
			idx := rng.Intn(len(bad))
			bad[idx] ^= byte(1 + rng.Intn(255))
			decode(bad, "bit flip", idx >= 13)
		}
		// Garbage of various sizes.
		for _, n := range []int{0, 1, 13, 64, 500} {
			junk := make([]byte, n)
			rng.Read(junk)
			decode(junk, "garbage", false)
		}
	}
}

// TestHeaderShapeTamperRejected corrupts the shape in the stream header so
// the implied length explodes; decoders must reject rather than allocate
// absurd buffers or read out of bounds.
func TestHeaderShapeTamperRejected(t *testing.T) {
	shape := compress.Shape{NLev: 1, NLat: 8, NLon: 8}
	data := make([]float32, shape.Len())
	for _, name := range []string{"fpzip-24", "apax-4", "isa-0.5", "grib2", "nc"} {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := c.Compress(data, shape)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]byte(nil), buf...)
		// Header layout: ID byte + 3 × uint32 LE dims.
		bad[1], bad[2], bad[3], bad[4] = 0xff, 0xff, 0xff, 0x7f
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic on tampered shape: %v", name, r)
				}
			}()
			if _, err := c.Decompress(bad); err == nil {
				t.Fatalf("%s: tampered shape accepted", name)
			}
		}()
	}
}
