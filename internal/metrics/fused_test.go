package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"climcompress/internal/compress"
	_ "climcompress/internal/compress/apax"
	"climcompress/internal/compress/fpzip"
	_ "climcompress/internal/compress/grib2"
	_ "climcompress/internal/compress/isabela"
	_ "climcompress/internal/compress/nclossless"
	_ "climcompress/internal/compress/tsblob"
)

const testFill = float32(9.96921e36)

// fusedShape is deliberately not a multiple of the chunk sizes below, so
// partial trailing chunks are exercised.
var fusedShape = compress.Shape{NLev: 3, NLat: 16, NLon: 24}

// fusedFields builds the three field characters of the equivalence matrix:
// fill-heavy (~50% sentinel), constant, and chaotic.
func fusedFields() map[string][]float32 {
	n := fusedShape.Len()
	rng := rand.New(rand.NewSource(9))
	fillHeavy := make([]float32, n)
	for i := range fillHeavy {
		if rng.Intn(2) == 0 {
			fillHeavy[i] = testFill
		} else {
			fillHeavy[i] = float32(math.Sin(float64(i)/7)) * 40
		}
	}
	constant := make([]float32, n)
	for i := range constant {
		constant[i] = 273.15
	}
	chaotic := make([]float32, n)
	for i := range chaotic {
		chaotic[i] = rng.Float32()*500 - 250
	}
	return map[string][]float32{"fill-heavy": fillHeavy, "constant": constant, "chaotic": chaotic}
}

// fusedCodecs covers all seven codec families: nclossless, grib2, apax,
// fpzip, isabela, tsblob, and the fill-mask wrapper.
func fusedCodecs(t *testing.T) map[string]compress.Codec {
	out := map[string]compress.Codec{}
	for _, name := range []string{"nc", "grib2", "apax-4", "fpzip-24", "isa-0.5", "tsblob"} {
		c, err := compress.New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		out[name] = c
	}
	out["fillmask"] = compress.WithFill(fpzip.New(24), testFill)
	return out
}

func errorsBits(e Errors) [8]uint64 {
	return [8]uint64{
		math.Float64bits(e.EMax), math.Float64bits(e.ENMax),
		math.Float64bits(e.RMSE), math.Float64bits(e.NRMSE),
		math.Float64bits(e.PSNR), math.Float64bits(e.Pearson),
		math.Float64bits(e.Range), uint64(e.N),
	}
}

// TestFusedEquivalence pins the tentpole invariant: for every codec family
// and field character, the chunked decode yields exactly the materialized
// reconstruction, and the streaming Comparer/GradientComparer produce
// bit-identical Errors to the one-shot reference loops. Wired into make verify
// by name.
func TestFusedEquivalence(t *testing.T) {
	fields := fusedFields()
	codecs := fusedCodecs(t)
	chunkLens := []int{0, 7, 100, 4096}
	for cname, c := range codecs {
		for fname, orig := range fields {
			// Lossy codecs cannot carry the sentinel through quantization;
			// the pipeline wraps them in the fill mask, and so does the test.
			if fname == "fill-heavy" && !c.Lossless() && cname != "fillmask" {
				c = compress.WithFill(c, testFill)
			}
			buf, err := compress.CompressInto(c, nil, orig, fusedShape)
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", cname, fname, err)
			}
			recon, err := compress.DecompressInto(c, nil, buf)
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", cname, fname, err)
			}
			wantCmp := referenceCompare(orig, recon, testFill, true)
			wantGrad := referenceGradientCompare(orig, recon, fusedShape.NLev, fusedShape.NLat, fusedShape.NLon, testFill, true)
			for _, cl := range chunkLens {
				t.Run(fmt.Sprintf("%s/%s/chunk%d", cname, fname, cl), func(t *testing.T) {
					var chunk []float32
					if cl > 0 {
						chunk = make([]float32, cl)
					}
					got := make([]float32, 0, len(orig))
					var cmp Comparer
					cmp.Reset(testFill, true)
					gc := NewGradientComparer(orig, fusedShape.NLev, fusedShape.NLat, fusedShape.NLon, testFill, true)
					err := compress.DecodeChunks(c, buf, chunk, func(off int, vals []float32) error {
						if off != len(got) {
							return fmt.Errorf("offset %d, want %d", off, len(got))
						}
						got = append(got, vals...)
						cmp.Push(orig[off:off+len(vals)], vals, off)
						gc.Push(vals, off)
						return nil
					})
					if err != nil {
						t.Fatalf("DecodeChunks: %v", err)
					}
					if len(got) != len(recon) {
						t.Fatalf("chunked decode yielded %d values, want %d", len(got), len(recon))
					}
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(recon[i]) {
							t.Fatalf("value %d: chunked %v != materialized %v", i, got[i], recon[i])
						}
					}
					if g, w := errorsBits(cmp.Finish()), errorsBits(wantCmp); g != w {
						t.Errorf("Comparer.Finish mismatch:\n got %+v\nwant %+v", cmp.Finish(), wantCmp)
					}
					if g, w := errorsBits(gc.Finish()), errorsBits(wantGrad); g != w {
						t.Errorf("GradientComparer.Finish mismatch:\n got %+v\nwant %+v", gc.Finish(), wantGrad)
					}
				})
			}
		}
	}
}

// TestFusedSteadyStateAllocs pins the fused verification inner loop —
// DecodeChunks into a reused chunk buffer, Comparer.Push per chunk, then
// Finish on a reused Comparer — at zero allocations per field for every
// registered codec with a native chunk decoder.
func TestFusedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	orig := fusedFields()["chaotic"]
	chunk := make([]float32, 100)
	var cmp Comparer
	yield := func(off int, vals []float32) error {
		cmp.Push(orig[off:off+len(vals)], vals, off)
		return nil
	}
	for _, name := range compress.Names() {
		c, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(compress.ChunkDecoder); !ok {
			continue
		}
		buf, err := compress.CompressInto(c, nil, orig, fusedShape)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		var e Errors
		if allocs := testing.AllocsPerRun(10, func() {
			cmp.Reset(testFill, true)
			if err := compress.DecodeChunks(c, buf, chunk, yield); err != nil {
				t.Fatalf("%s: DecodeChunks: %v", name, err)
			}
			e = cmp.Finish()
		}); allocs > 0 {
			t.Errorf("%s: decode→compare allocates %.1f/op in steady state, want 0", name, allocs)
		}
		if e.N != len(orig) {
			t.Fatalf("%s: compared %d of %d points", name, e.N, len(orig))
		}
	}
}

// TestCompareAllFillNaN is the regression pin for the degenerate all-fill
// field: zero valid points must yield the explicit NaN-filled Errors (the
// same shape as the length-mismatch case), discarding even the infinite
// EMax that a fill-point reconstruction mismatch sets — and the streaming
// Comparer must match bit for bit.
func TestCompareAllFillNaN(t *testing.T) {
	orig := []float32{testFill, testFill, testFill, testFill}
	for _, recon := range [][]float32{
		{testFill, testFill, testFill, testFill}, // faithful fill reconstruction
		{testFill, 1.5, testFill, testFill},      // fill point lost => transient Inf EMax
	} {
		e := referenceCompare(orig, recon, testFill, true)
		for name, v := range map[string]float64{
			"EMax": e.EMax, "ENMax": e.ENMax, "RMSE": e.RMSE, "NRMSE": e.NRMSE,
			"PSNR": e.PSNR, "Pearson": e.Pearson, "Range": e.Range,
		} {
			if !math.IsNaN(v) {
				t.Errorf("all-fill Compare %s = %v, want NaN", name, v)
			}
		}
		if e.N != 0 {
			t.Errorf("all-fill Compare N = %d, want 0", e.N)
		}
		var cmp Comparer
		cmp.Reset(testFill, true)
		cmp.Push(orig[:2], recon[:2], 0)
		cmp.Push(orig[2:], recon[2:], 2)
		if g, w := errorsBits(cmp.Finish()), errorsBits(e); g != w {
			t.Errorf("Comparer all-fill mismatch:\n got %+v\nwant %+v", cmp.Finish(), e)
		}
	}
}
