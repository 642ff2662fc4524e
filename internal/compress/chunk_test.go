package compress_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"climcompress/internal/compress"
	_ "climcompress/internal/compress/nclossless"
)

// chunkField builds a deterministic smooth field.
func chunkField(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i) / 11))
	}
	return out
}

// TestFallbackChunksContract exercises the pooled whole-field adapter on a
// deflate-bound codec: contiguous ascending offsets covering the field,
// caller-buffer windows, and value identity with the materialized decode.
func TestFallbackChunksContract(t *testing.T) {
	c, err := compress.New("nc")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(compress.ChunkDecoder); ok {
		t.Fatalf("nc unexpectedly implements ChunkDecoder; fallback untested")
	}
	shape := compress.Shape{NLev: 2, NLat: 5, NLon: 13}
	data := chunkField(shape.Len())
	buf, err := compress.CompressInto(c, nil, data, shape)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range []int{0, 1, 17, 8192} {
		var chunk []float32
		if cl > 0 {
			chunk = make([]float32, cl)
		}
		next := 0
		err := compress.DecodeChunks(c, buf, chunk, func(off int, vals []float32) error {
			if off != next {
				return fmt.Errorf("offset %d, want %d", off, next)
			}
			if len(vals) == 0 {
				return fmt.Errorf("empty chunk at %d", off)
			}
			if cl > 0 && len(vals) > cl {
				return fmt.Errorf("chunk of %d exceeds caller buffer %d", len(vals), cl)
			}
			for j, v := range vals {
				if math.Float32bits(v) != math.Float32bits(data[off+j]) {
					return fmt.Errorf("value %d: %v != %v", off+j, v, data[off+j])
				}
				vals[j] = -1 // consumers may mutate yielded values
			}
			next = off + len(vals)
			return nil
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", cl, err)
		}
		if next != shape.Len() {
			t.Fatalf("chunk %d: covered %d of %d points", cl, next, shape.Len())
		}
	}
	// Mutation through the yield must not poison pooled state for the next
	// decode.
	vals, err := compress.DecompressInto(c, nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float32bits(vals[i]) != math.Float32bits(data[i]) {
			t.Fatalf("post-mutation decode corrupt at %d", i)
		}
	}
}

// TestDecodeChunksYieldError pins that a yield error aborts the decode and
// comes back unwrapped.
func TestDecodeChunksYieldError(t *testing.T) {
	c, err := compress.New("nc")
	if err != nil {
		t.Fatal(err)
	}
	shape := compress.Shape{NLev: 1, NLat: 4, NLon: 8}
	buf, err := compress.CompressInto(c, nil, chunkField(shape.Len()), shape)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	calls := 0
	err = compress.DecodeChunks(c, buf, make([]float32, 8), func(off int, vals []float32) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("yield error not propagated: %v", err)
	}
	if calls != 1 {
		t.Fatalf("decode continued after yield error: %d calls", calls)
	}
}

// TestDecodeChunksCorrupt pins that stream validation still fires on the
// chunked path.
func TestDecodeChunksCorrupt(t *testing.T) {
	c, err := compress.New("nc")
	if err != nil {
		t.Fatal(err)
	}
	err = compress.DecodeChunks(c, []byte{1, 2, 3}, nil, func(off int, vals []float32) error { return nil })
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("corrupt stream err = %v, want ErrCorrupt", err)
	}
}

// TestFillMaskChunkedNative pins that wrapping a natively-chunked codec
// keeps the wrapper natively chunked.
func TestFillMaskChunkedNative(t *testing.T) {
	inner, err := compress.New("nc")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := compress.WithFill(inner, 7).(compress.ChunkDecoder); !ok {
		t.Fatalf("fill-masked codec should implement ChunkDecoder")
	}
}
