package compress_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"climcompress/internal/compress"
	_ "climcompress/internal/compress/apax"
	_ "climcompress/internal/compress/fpzip"
	_ "climcompress/internal/compress/grib2"
	_ "climcompress/internal/compress/isabela"
	_ "climcompress/internal/compress/nclossless"
	_ "climcompress/internal/compress/tsblob"
)

// goldenShape and goldenField pin the exact inputs whose compressed streams
// were hashed against the pre-refactor (pre-Into) implementations. Any change
// to these streams is a format break, not a refactor.
var goldenShape = compress.Shape{NLev: 3, NLat: 24, NLon: 48}

func goldenField(n int) []float32 {
	data := make([]float32, n)
	x := uint64(2014)
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		noise := float64(x%100000)/50000 - 1
		data[i] = float32(260 + 30*math.Sin(float64(i)/17) + 5*math.Cos(float64(i)/5) + noise)
	}
	// A few special values: exact zeros and a fill-like sentinel region.
	for i := 0; i < n; i += 97 {
		data[i] = 0
	}
	return data
}

// goldenHashes are SHA-256 digests of each codec's compressed stream for
// goldenField/goldenShape, captured from the repository state before the
// append-style API existed. CompressInto and Compress must both still
// produce exactly these bytes.
var goldenHashes = map[string]string{
	"apax-2":        "6c85b153b650a6e7dcb4465bb24501be17ef31ecf789281ba5d8b98ad2731f74",
	"apax-4":        "1db0126c6a3aafff0e86662d49e7dcc8d091d427b4e136e7bc2867b653ae6438",
	"apax-5":        "c49827e992877d3762a865f60e2ce2561061fed30c2e9e1eeaeda9e13918a907",
	"apax-6":        "4ceef237fcdfdea0d5aae048ce96474c508f961a3396a073f846695a3329c47c",
	"apax-7":        "657e698bf58a541e405b49a51f4de759c9ec35286a0b19acef72a8e0be043410",
	"fpzip-16":      "f5ba5cfd4e50cbc6face16116171715fbd5d433302ec25db2ba09aad34092beb",
	"fpzip-16-prev": "ca58683fef079a6b37df6dc6fd9b07a2772106c6a3a0e4cdc81d63c3577d2583",
	"fpzip-24":      "1dbffdf391f25a979f6c5bae26a150197f93db916e2c87a5179fd7386f065458",
	"fpzip-24-3d":   "0d354199334b0e8bb0bd5acf5df6de597d4ccaa624678dd0595780b7f13e5df2",
	"fpzip-32":      "d692f71279d843553485c8386115ad0d004d1524ad2ea23149399018b9b68d2c",
	"fpzip-8":       "57ccf3345deb1d7da46fd4206ab1a43408db99147aec774061b32428aa95f960",
	"fpzip64-48":    "8acda36cd3426ffed533b006f8b7407f86e755d80186f5933b9bb9913371e937",
	"fpzip64-64":    "482e07462b804011f7256a9072db870f186b6c250f32e08ed7721ef58ba0a8e1",
	"grib2":         "fe19508e5861e02a4d1246710873061a900833f3390a8d4062002d4c40e25103",
	"grib2-simple":  "85646b4b020f58b89ee371010b3939c20d992420323326b55eb98fcb51e6cbb5",
	"isa-0.1":       "03b07f778afca906ecc2ab6c34862e617f27bb3fe9576f305a4ae1f4cb124182",
	"isa-0.5":       "049e9de564555d4f29049250c0e2e0700d534b2129138b35016eb66e01da64b2",
	"isa-1":         "3c06f9ca4e44e2f60ae1f5a77a5a10c04695de762429f702a6772687fb345c93",
	"nc":            "3a09971bd4232e758a8e98704401673b6b01732d8e6f01e81003a52c514f2ed9",
	"nc-noshuffle":  "df244dcee8a60371a1eab744614b15ac38a38672bfa9659103f507b0ec59d17b",
	"nc+fill":       "6a333892746a80033128ca0234bebcea948af95d5a1131dd47b1cf8d1b39e2d8",
	"tsblob":        "37b2dd645044e765ee1bb75a9a59b82b5e2028949082e2844b5b94cac0c3526f",
}

// goldenCodecs returns every codec under test by name: the registry plus the
// fill-masked wrapper.
func goldenCodecs(t *testing.T) map[string]compress.Codec {
	t.Helper()
	codecs := make(map[string]compress.Codec)
	for _, name := range compress.Names() {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		codecs[name] = c
	}
	nc, err := compress.New("nc")
	if err != nil {
		t.Fatal(err)
	}
	codecs["nc+fill"] = compress.WithFill(nc, 0)
	return codecs
}

// TestGoldenStreams pins every codec's compressed output — via both the
// classic API and the append API — to the hashes captured before the
// zero-allocation refactor.
func TestGoldenStreams(t *testing.T) {
	data := goldenField(goldenShape.Len())
	for name, c := range goldenCodecs(t) {
		want, ok := goldenHashes[name]
		if !ok {
			t.Errorf("%s: no golden hash recorded; add one", name)
			continue
		}
		buf, err := c.Compress(data, goldenShape)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		if got := hex.EncodeToString(sum256(buf)); got != want {
			t.Errorf("%s: Compress stream hash %s, want %s", name, got, want)
		}
		into, err := compress.CompressInto(c, nil, data, goldenShape)
		if err != nil {
			t.Fatalf("%s: compress into: %v", name, err)
		}
		if !bytes.Equal(into, buf) {
			t.Errorf("%s: CompressInto differs from Compress", name)
		}
	}
}

func sum256(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:]
}

// TestCompressIntoAppends verifies the append contract: an existing dst
// prefix is preserved and the appended bytes match a fresh Compress.
func TestCompressIntoAppends(t *testing.T) {
	data := goldenField(goldenShape.Len())
	prefix := []byte("framed:")
	for name, c := range goldenCodecs(t) {
		plain, err := c.Compress(data, goldenShape)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst := append(make([]byte, 0, len(prefix)+len(plain)+512), prefix...)
		dst, err = compress.CompressInto(c, dst, data, goldenShape)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(dst, prefix) {
			t.Fatalf("%s: dst prefix clobbered", name)
		}
		if !bytes.Equal(dst[len(prefix):], plain) {
			t.Fatalf("%s: appended stream differs from Compress", name)
		}
	}
}

// TestDecompressIntoReuses verifies the reconstruction contract: with a
// big-enough dst the decoded slice reuses its backing array, and the values
// match the classic API bit for bit.
func TestDecompressIntoReuses(t *testing.T) {
	data := goldenField(goldenShape.Len())
	for name, c := range goldenCodecs(t) {
		buf, err := c.Compress(data, goldenShape)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dst := make([]float32, goldenShape.Len())
		got, err := compress.DecompressInto(c, dst, buf)
		if err != nil {
			t.Fatalf("%s: decompress into: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d values, want %d", name, len(got), len(want))
		}
		if &got[0] != &dst[0] {
			t.Errorf("%s: DecompressInto did not reuse dst's backing array", name)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: value %d differs: %v vs %v", name, i, got[i], want[i])
			}
		}
		// A second pass over a reused (dirty) dst must give the same result.
		again, err := compress.DecompressInto(c, got, buf)
		if err != nil {
			t.Fatalf("%s: second decompress into: %v", name, err)
		}
		for i := range want {
			if math.Float32bits(again[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: reused-dst value %d differs", name, i)
			}
		}
	}
}

// intoAllocBudgets lists the registered AppendCodecs that allocate in
// steady state, with their per-op bounds for compress and decompress;
// every other AppendCodec in the registry must allocate nothing. The nc
// decompress direction is bounded by the stdlib flate decoder, which
// rebuilds its dynamic-Huffman link tables (inflate.go's h.links =
// make(...)) for every deflate block; those allocations live inside
// compress/flate and cannot be pooled from here without changing the
// stream. isa's are the B-spline plan lookup (bspline.planFor), which
// hands sync.Map.LoadOrStore a boxed key and a fresh entry once per fit
// and once per evaluation, i.e. per window.
var intoAllocBudgets = map[string]struct{ compress, decompress float64 }{
	"nc":           {0, 8},
	"nc-noshuffle": {0, 8},
	"isa-0.1":      {16, 8},
	"isa-0.5":      {16, 8},
	"isa-1":        {16, 8},
}

// TestIntoSteadyStateAllocs asserts the headline property of the pooled
// scratch design: after warm-up, every registered codec's Into paths stay
// within their allocation budget per operation (zero unless listed in
// intoAllocBudgets).
func TestIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	shape := compress.Shape{NLev: 2, NLat: 32, NLon: 64}
	data := goldenField(shape.Len())
	for name := range intoAllocBudgets {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(compress.AppendCodec); !ok {
			t.Errorf("%s has an allocation budget but does not implement AppendCodec", name)
		}
	}
	for _, name := range compress.Names() {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ac, ok := c.(compress.AppendCodec)
		if !ok {
			continue
		}
		budget := intoAllocBudgets[name]
		// Warm the pools and size the reusable buffers.
		buf, err := ac.CompressInto(nil, data, shape)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ac.DecompressInto(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		bufCap := buf[:0:cap(buf)]
		if allocs := testing.AllocsPerRun(10, func() {
			var err error
			buf, err = ac.CompressInto(bufCap, data, shape)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs > budget.compress {
			t.Errorf("%s: CompressInto allocates %.1f/op in steady state, want ≤ %.0f",
				name, allocs, budget.compress)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			var err error
			out, err = ac.DecompressInto(out, buf)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs > budget.decompress {
			t.Errorf("%s: DecompressInto allocates %.1f/op in steady state, want ≤ %.0f",
				name, allocs, budget.decompress)
		}
	}
}
