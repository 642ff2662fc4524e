package pvt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"climcompress/internal/compress"
	_ "climcompress/internal/compress/apax"
	"climcompress/internal/compress/fpzip"
	_ "climcompress/internal/compress/nclossless"
	"climcompress/internal/ensemble"
	"climcompress/internal/field"
	"climcompress/internal/grid"
)

// buildEnsemble creates a synthetic ensemble with per-point std sigma.
func buildEnsemble(t testing.TB, nm int, sigma float64, seed int64) (*ensemble.VarStats, compress.Shape) {
	t.Helper()
	g := grid.Test()
	rng := rand.New(rand.NewSource(seed))
	fields := make([]*field.Field, nm)
	for m := range fields {
		f := field.New("X", "1", g, false)
		for i := range f.Data {
			mu := 50 + 10*math.Sin(float64(i)/9)
			f.Data[i] = float32(mu + sigma*rng.NormFloat64())
		}
		fields[m] = f
	}
	vs, err := ensemble.Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	return vs, compress.Shape{NLev: 1, NLat: g.NLat, NLon: g.NLon}
}

// noopCodec reconstructs data exactly; it must pass everything.
type noopCodec struct{}

func (noopCodec) Name() string   { return "noop" }
func (noopCodec) Lossless() bool { return true }
func (noopCodec) Compress(data []float32, shape compress.Shape) ([]byte, error) {
	out := compress.PutHeader(nil, compress.Header{CodecID: compress.IDRaw, Shape: shape})
	for _, v := range data {
		u := math.Float32bits(v)
		out = append(out, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return out, nil
}
func (noopCodec) Decompress(buf []byte) ([]float32, error) {
	h, rest, err := compress.ParseHeader(buf)
	if err != nil {
		return nil, err
	}
	out := make([]float32, h.Shape.Len())
	for i := range out {
		u := uint32(rest[4*i]) | uint32(rest[4*i+1])<<8 | uint32(rest[4*i+2])<<16 | uint32(rest[4*i+3])<<24
		out[i] = math.Float32frombits(u)
	}
	return out, nil
}

// breakerCodec adds a constant offset scaled by member-dependent data — a
// deliberately climate-changing "compressor".
type breakerCodec struct {
	noopCodec
	offset float32
}

func (b breakerCodec) Name() string { return "breaker" }
func (b breakerCodec) Decompress(buf []byte) ([]float32, error) {
	out, err := b.noopCodec.Decompress(buf)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] += b.offset
	}
	return out, nil
}

func TestSelectTestMembers(t *testing.T) {
	m := SelectTestMembers(101, 3, 7)
	if len(m) != 3 {
		t.Fatalf("got %d members", len(m))
	}
	seen := map[int]bool{}
	for _, i := range m {
		if i < 0 || i >= 101 || seen[i] {
			t.Fatalf("bad member selection %v", m)
		}
		seen[i] = true
	}
	m2 := SelectTestMembers(101, 3, 7)
	for i := range m {
		if m[i] != m2[i] {
			t.Fatal("selection not deterministic")
		}
	}
	if got := SelectTestMembers(2, 5, 1); len(got) != 2 {
		t.Fatalf("k>n should clamp: %v", got)
	}
}

func TestLosslessPassesAllTests(t *testing.T) {
	vs, shape := buildEnsemble(t, 21, 1.0, 1)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	res, err := v.Verify(noopCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllPass {
		t.Fatalf("lossless codec failed: %+v", res)
	}
	if !res.RhoPass || !res.RMSZPass || !res.EnmaxPass || !res.BiasPass || !res.RangeOK {
		t.Fatalf("sub-tests: %+v", res)
	}
	if math.Abs(res.Bias.Slope-1) > 1e-9 || math.Abs(res.Bias.Intercept) > 1e-9 {
		t.Fatalf("lossless bias regression should be ideal: %+v", res.Bias)
	}
	for _, c := range res.Checks {
		if c.Errors.EMax != 0 || c.RMSZRecon != c.RMSZOrig {
			t.Fatalf("lossless member check not exact: %+v", c)
		}
	}
}

func TestClimateChangingCodecFails(t *testing.T) {
	vs, shape := buildEnsemble(t, 21, 1.0, 2)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	// Offset of 3 sigma: clearly climate-changing.
	res, err := v.Verify(breakerCodec{offset: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllPass {
		t.Fatal("3-sigma offset codec must fail")
	}
	if res.RMSZPass {
		t.Fatal("RMSZ test should catch a 3-sigma shift")
	}
}

func TestSmallErrorCodecPassesRMSZButMaybeNotEnmax(t *testing.T) {
	vs, shape := buildEnsemble(t, 21, 1.0, 3)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	// Tiny offset, well under sigma.
	res, err := v.Verify(breakerCodec{offset: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if !res.RMSZPass {
		t.Fatalf("0.005 offset should pass RMSZ: %+v", res.Checks)
	}
	if !res.RhoPass {
		t.Fatal("0.005 offset should pass correlation")
	}
}

func TestFpzipPrecisionOrdering(t *testing.T) {
	// Higher precision must pass at least as many tests as lower.
	vs, shape := buildEnsemble(t, 21, 0.5, 4)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	count := func(res Result) int {
		n := 0
		for _, p := range []bool{res.RhoPass, res.RMSZPass, res.EnmaxPass, res.BiasPass} {
			if p {
				n++
			}
		}
		return n
	}
	r32, err := v.Verify(fpzip.New(32))
	if err != nil {
		t.Fatal(err)
	}
	r16, err := v.Verify(fpzip.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if count(r32) < count(r16) {
		t.Fatalf("fpzip-32 (%d passes) worse than fpzip-16 (%d)", count(r32), count(r16))
	}
	if !r32.AllPass {
		t.Fatalf("fpzip-32 lossless must pass everything: %+v", r32)
	}
}

func TestBiasDetection(t *testing.T) {
	vs, shape := buildEnsemble(t, 31, 1.0, 5)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	// A large constant offset inflates every reconstructed RMSZ: the
	// regression slope/intercept moves away from (1, 0).
	res, err := v.Verify(breakerCodec{offset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bias.Slope == 1 && res.Bias.Intercept == 0 {
		t.Fatal("bias regression should move off the ideal point")
	}
}

func TestSkipBias(t *testing.T) {
	vs, shape := buildEnsemble(t, 11, 1.0, 6)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: false}
	res, err := v.Verify(noopCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SkippedBias || !res.BiasPass {
		t.Fatal("skipped bias should be marked and pass")
	}
	if len(res.ReconRMSZ) != 0 {
		t.Fatal("skipped bias should not compute all-member RMSZ")
	}
}

func TestMeanCRReported(t *testing.T) {
	vs, shape := buildEnsemble(t, 11, 1.0, 7)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	c, err := compress.New("apax-4")
	if err != nil {
		t.Fatal(err)
	}
	res, err := v.Verify(c)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny test fields carry fixed header overhead, so allow extra slack
	// above the nominal 0.25.
	if res.MeanCR < 0.23 || res.MeanCR > 0.30 {
		t.Fatalf("apax-4 mean CR = %v, want ≈ 0.25", res.MeanCR)
	}
}

func TestVerifyDataMatchesVerify(t *testing.T) {
	// Compressing externally then calling VerifyData must agree with the
	// in-process Verify path.
	vs, shape := buildEnsemble(t, 15, 1.0, 55)
	codec := fpzip.New(16)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	direct, err := v.Verify(codec)
	if err != nil {
		t.Fatal(err)
	}
	recon := make([][]float32, vs.Members())
	for m := range recon {
		data, release := vs.AcquireOriginal(m)
		buf, err := codec.Compress(data, shape)
		release()
		if err != nil {
			t.Fatal(err)
		}
		recon[m], err = codec.Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	viaData, err := v.VerifyData("external", recon)
	if err != nil {
		t.Fatal(err)
	}
	if viaData.RhoPass != direct.RhoPass || viaData.RMSZPass != direct.RMSZPass ||
		viaData.EnmaxPass != direct.EnmaxPass || viaData.BiasPass != direct.BiasPass {
		t.Fatalf("paths disagree: direct %+v vs data %+v", direct, viaData)
	}
	if math.Abs(viaData.Bias.Slope-direct.Bias.Slope) > 1e-12 {
		t.Fatalf("bias slopes differ: %v vs %v", viaData.Bias.Slope, direct.Bias.Slope)
	}
}

func TestVerifyDataErrors(t *testing.T) {
	vs, shape := buildEnsemble(t, 7, 1.0, 56)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default()}
	if _, err := v.VerifyData("x", make([][]float32, 3)); err == nil {
		t.Fatal("wrong member count should error")
	}
	bad := make([][]float32, 7)
	for i := range bad {
		bad[i] = make([]float32, 5)
	}
	if _, err := v.VerifyData("x", bad); err == nil {
		t.Fatal("wrong point count should error")
	}
}

func TestFillBearingVariableVerifies(t *testing.T) {
	g := grid.Test()
	rng := rand.New(rand.NewSource(33))
	fields := make([]*field.Field, 11)
	for m := range fields {
		f := field.New("SST", "K", g, false)
		f.HasFill = true
		for i := range f.Data {
			if i%5 == 0 {
				f.Data[i] = f.Fill
			} else {
				f.Data[i] = float32(290 + 3*math.Sin(float64(i)/7) + rng.NormFloat64())
			}
		}
		fields[m] = f
	}
	vs, err := ensemble.Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	v := &Verifier{
		Stats: vs,
		Shape: compress.Shape{NLev: 1, NLat: g.NLat, NLon: g.NLon},
		Thr:   Default(), WithBias: true,
	}
	inner := fpzip.New(24)
	res, err := v.Verify(compress.WithFill(inner, field.DefaultFill))
	if err != nil {
		t.Fatal(err)
	}
	if !res.RhoPass || !res.RMSZPass {
		t.Fatalf("fill-bearing variable failed basic tests: %+v", res)
	}
	for _, c := range res.Checks {
		if c.Errors.N >= fields[0].Len() {
			t.Fatal("fill points leaked into error metrics")
		}
		if math.IsInf(c.Errors.EMax, 1) {
			t.Fatal("fill values lost through the codec")
		}
	}
}

func TestThresholdsTighterFailsMore(t *testing.T) {
	vs, shape := buildEnsemble(t, 15, 1.0, 44)
	loose := Default()
	tight := Default()
	tight.RMSZDiff = 1e-9
	tight.EnmaxRatio = 1e-9
	vl := &Verifier{Stats: vs, Shape: shape, Thr: loose, WithBias: false}
	vt := &Verifier{Stats: vs, Shape: shape, Thr: tight, WithBias: false}
	codec := breakerCodec{offset: 0.01}
	rl, err := vl.Verify(codec)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := vt.Verify(codec)
	if err != nil {
		t.Fatal(err)
	}
	if !rl.RMSZPass || rt.RMSZPass {
		t.Fatalf("threshold tightening had no effect: loose=%v tight=%v", rl.RMSZPass, rt.RMSZPass)
	}
}

func TestVerifierParallelDeterminism(t *testing.T) {
	vs, shape := buildEnsemble(t, 15, 1.0, 8)
	results := make([]Result, 2)
	for i, workers := range []int{1, 8} {
		v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true, Workers: workers}
		res, err := v.Verify(fpzip.New(16))
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if fmt.Sprintf("%v", results[0].ReconRMSZ) != fmt.Sprintf("%v", results[1].ReconRMSZ) {
		t.Fatal("worker count changed results")
	}
}

func BenchmarkVerifyWithBias(b *testing.B) {
	vs, shape := buildEnsemble(b, 11, 1.0, 9)
	v := &Verifier{Stats: vs, Shape: shape, Thr: Default(), WithBias: true}
	c := fpzip.New(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Verify(c); err != nil {
			b.Fatal(err)
		}
	}
}
