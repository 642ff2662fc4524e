package compress_test

import (
	"math"
	"testing"

	"climcompress/internal/compress"
	_ "climcompress/internal/compress/apax"
	"climcompress/internal/compress/fpzip"
	_ "climcompress/internal/compress/grib2"
	_ "climcompress/internal/compress/isabela"
	_ "climcompress/internal/compress/nclossless"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := compress.Header{CodecID: compress.IDAPAX, Shape: compress.Shape{NLev: 3, NLat: 17, NLon: 101}}
	buf := compress.PutHeader(nil, h)
	buf = append(buf, 0xde, 0xad)
	got, rest, err := compress.ParseHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header %+v, want %+v", got, h)
	}
	if len(rest) != 2 || rest[0] != 0xde {
		t.Fatalf("payload not preserved: %x", rest)
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, _, err := compress.ParseHeader([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should error")
	}
	bad := compress.PutHeader(nil, compress.Header{CodecID: 1, Shape: compress.Shape{NLev: 0, NLat: 1, NLon: 1}})
	if _, _, err := compress.ParseHeader(bad); err == nil {
		t.Fatal("zero dimension should error")
	}
}

func TestRatio(t *testing.T) {
	if got := compress.Ratio(100, 100); got != 0.25 {
		t.Fatalf("Ratio = %v, want 0.25", got)
	}
	if !math.IsNaN(compress.Ratio(10, 0)) {
		t.Fatal("Ratio with n=0 should be NaN")
	}
}

// studyVariants are the paper's nine evaluated lossy variants in the order
// of Tables 3–6.
var studyVariants = []string{
	"grib2", "apax-2", "apax-4", "apax-5",
	"fpzip-24", "fpzip-16",
	"isa-0.1", "isa-0.5", "isa-1.0",
}

func TestRegistryListsStudyVariants(t *testing.T) {
	names := compress.Names()
	if len(names) < 9 {
		t.Fatalf("registry has only %d codecs: %v", len(names), names)
	}
	for _, v := range studyVariants {
		found := false
		for _, n := range names {
			// apax/isa registry names use %g formatting (e.g. "isa-1").
			if n == v || n+".0" == v {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("study variant %q not in registry %v", v, names)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := compress.New("nope"); err == nil {
		t.Fatal("unknown codec should error")
	}
}

func TestFillMaskRoundTrip(t *testing.T) {
	shape := compress.Shape{NLev: 1, NLat: 8, NLon: 16}
	const fill = float32(1e35)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(i%13) + 0.5
	}
	// Fill a leading run plus scattered points.
	data[0], data[1], data[40], data[41], data[127] = fill, fill, fill, fill, fill

	c := compress.WithFill(fpzip.New(32), fill)
	if c.Name() != "fpzip-32+fill" || !c.Lossless() {
		t.Fatalf("wrapper metadata wrong: %s lossless=%v", c.Name(), c.Lossless())
	}
	buf, err := c.Compress(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], data[i])
		}
	}
}

func TestFillMaskAllFill(t *testing.T) {
	shape := compress.Shape{NLev: 1, NLat: 2, NLon: 4}
	const fill = float32(1e35)
	data := []float32{fill, fill, fill, fill, fill, fill, fill, fill}
	c := compress.WithFill(fpzip.New(32), fill)
	buf, err := c.Compress(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != fill {
			t.Fatalf("all-fill field corrupted at %d", i)
		}
	}
}

func TestFillMaskLossyInnerPreservesFill(t *testing.T) {
	shape := compress.Shape{NLev: 1, NLat: 16, NLon: 16}
	const fill = float32(1e35)
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(i)
	}
	for i := 3; i < len(data); i += 9 {
		data[i] = fill
	}
	inner, err := compress.New("apax-4")
	if err != nil {
		t.Fatal(err)
	}
	c := compress.WithFill(inner, fill)
	buf, err := c.Compress(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] == fill {
			if got[i] != fill {
				t.Fatalf("fill lost at %d", i)
			}
		} else if math.Abs(float64(got[i]-data[i])) > 1 {
			// Without masking, the 1e35 sentinel would dominate every
			// block exponent and destroy all real values.
			t.Fatalf("lossy value error too large at %d: %v vs %v", i, got[i], data[i])
		}
	}
}

func TestAllCodecsRoundTripViaInterface(t *testing.T) {
	shape := compress.Shape{NLev: 2, NLat: 16, NLon: 32}
	data := make([]float32, shape.Len())
	for i := range data {
		data[i] = float32(50 + 10*math.Sin(float64(i)/20))
	}
	for _, name := range compress.Names() {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := c.Compress(data, shape)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		if len(got) != len(data) {
			t.Fatalf("%s: length %d, want %d", name, len(got), len(data))
		}
		if name == "fpzip-8" {
			// 8-bit precision keeps no mantissa bits at all (values
			// collapse to powers of two); only the round trip is checked.
			continue
		}
		// Gross-error screen only: the aggressive variants (apax-7) are
		// allowed visible loss, but nothing should be wildly off.
		for i := range data {
			if math.Abs(float64(got[i]-data[i])) > 10 {
				t.Fatalf("%s: gross error at %d: %v vs %v", name, i, got[i], data[i])
			}
		}
	}
}
