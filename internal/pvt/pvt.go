// Package pvt implements the paper's verification methodology (§4.3): the
// CESM-PVT applied to compressed data. A codec passes for a variable when
//
//  1. the Pearson correlation between original and reconstructed data is at
//     least 0.99999 for each test member;
//  2. the RMSZ test holds: each test member's reconstructed RMSZ falls
//     within the 101-member RMSZ distribution AND differs from the original
//     member's RMSZ by at most 0.1 (eq. 8);
//  3. the E_nmax test holds: the normalized maximum pointwise error between
//     original and reconstruction is at most one tenth of the spread of the
//     ensemble's E_nmax distribution (eq. 11);
//  4. the bias test holds: regressing the fully reconstructed ensemble's
//     RMSZ scores on the original ensemble's, the distance from the ideal
//     slope 1 to the worst corner of the 95% confidence interval is at most
//     0.05 (eq. 9).
//
// A range-shift screen on global means (the CESM-PVT's first step) is also
// provided.
package pvt

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"climcompress/internal/compress"
	"climcompress/internal/ensemble"
	"climcompress/internal/metrics"
	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// withStage runs fn under a pprof "stage" label, so CPU profiles of the
// fused verification path split into its decode / metrics / rmsz phases.
func withStage(stage string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("stage", stage), func(context.Context) { fn() })
}

// Thresholds are the acceptance limits of the four tests.
type Thresholds struct {
	Correlation   float64 // minimum ρ (paper: 0.99999)
	RMSZDiff      float64 // maximum |RMSZ − RMSZ̃| (paper: 1/10)
	EnmaxRatio    float64 // maximum e_nmax / R_Enmax (paper: 1/10)
	SlopeDistance float64 // maximum |s_I − s_WC| (paper: 0.05)
}

// Default returns the paper's thresholds.
func Default() Thresholds {
	return Thresholds{
		Correlation:   metrics.CorrelationThreshold,
		RMSZDiff:      0.1,
		EnmaxRatio:    0.1,
		SlopeDistance: 0.05,
	}
}

// MemberCheck is the per-test-member evidence.
type MemberCheck struct {
	Member    int
	Errors    metrics.Errors // §4.2 measures on this member
	RMSZOrig  float64
	RMSZRecon float64
	CR        float64
}

// Result is the verdict of one codec on one variable.
type Result struct {
	Variable string
	Codec    string

	Checks []MemberCheck // one per test member

	RhoPass     bool
	RMSZPass    bool
	EnmaxPass   bool
	BiasPass    bool
	RangeOK     bool // global-mean range-shift screen
	AllPass     bool // the four paper tests (range screen not included)
	Bias        stats.Regression
	ReconRMSZ   []float64 // RMSZ of every reconstructed member (bias data)
	MeanCR      float64   // mean compression ratio over all members
	EnmaxSpread float64   // R_Enmax denominator of eq. 11
	RMSZBox     stats.Boxplot
	SkippedBias bool // bias test not run (WithBias=false)
}

// Verifier runs the tests for one variable.
type Verifier struct {
	Stats *ensemble.VarStats
	Shape compress.Shape
	Thr   Thresholds
	// TestMembers are the indices verified individually (the paper picks
	// three at random); SelectTestMembers provides a deterministic choice.
	TestMembers []int
	// WithBias controls whether the (expensive, all-members) bias test
	// runs; when false the bias test is marked passed-by-skip.
	WithBias bool
	// Workers bounds compression parallelism (GOMAXPROCS when 0).
	Workers int
}

// SelectTestMembers deterministically picks k distinct member indices from
// an ensemble of n, spread across the range (the paper uses three random
// members; a deterministic spread keeps experiments reproducible).
func SelectTestMembers(n, k int, seed uint64) []int {
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool, k)
	x := seed | 1
	for len(out) < k {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m := int(x % uint64(n))
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// Verify compresses and reconstructs the ensemble with the codec and runs
// the four tests. Stage 1 compresses every needed member from a
// re-acquired original, retaining only the compressed stream — a small
// fraction of the raw data — so peak residency stays O(workers) instead of
// O(members). Stages 2–3 (check) decode each stream chunk by chunk straight
// into the streaming metric accumulators; on natively chunked codecs no
// reconstructed field is ever materialized — peak residency per member is
// one DefaultChunkLen chunk. CPU profile samples carry "stage" labels
// (decode / metrics / rmsz).
func (v *Verifier) Verify(codec compress.Codec) (Result, error) {
	vs := v.Stats
	nm := vs.Members()
	if nm == 0 {
		return Result{}, fmt.Errorf("pvt: empty ensemble")
	}
	testMembers := v.testMembers()

	// Which members must be reconstructed? All of them for the bias test,
	// otherwise only the test members.
	needed := testMembers
	if v.WithBias {
		needed = make([]int, nm)
		for i := range needed {
			needed[i] = i
		}
	}

	// Stage 1: compress each needed member; keep streams, drop originals.
	streams := make([][]byte, nm)
	crs := make([]float64, nm)
	errs := make([]error, nm)
	defer func() {
		for _, buf := range streams {
			if buf != nil {
				compress.PutBytes(buf)
			}
		}
	}()
	par.EachLimit(len(needed), v.Workers, func(j int) error {
		m := needed[j]
		data, release := vs.AcquireOriginal(m)
		defer release()
		buf, err := compress.CompressInto(codec, compress.GetBytes(len(data)), data, v.Shape)
		if err != nil {
			compress.PutBytes(buf)
			errs[m] = err
			return nil
		}
		crs[m] = compress.Ratio(len(buf), len(data))
		streams[m] = buf
		return nil
	})
	for _, m := range needed {
		if errs[m] != nil {
			return Result{}, fmt.Errorf("pvt: %s member %d: %w", codec.Name(), m, errs[m])
		}
	}

	// An empty chunk buffer lets each decoder pick its cheapest shape:
	// native chunk decoders stream through their own pooled buffer, and the
	// whole-field fallback yields direct windows of its internal
	// reconstruction instead of copying every window out.
	return v.check(codec.Name(), testMembers, crs, v.WithBias,
		func(m int, yield func(off int, vals []float32) error) error {
			return compress.DecodeChunks(codec, streams[m], nil, yield)
		})
}

// testMembers returns the members verified individually.
func (v *Verifier) testMembers() []int {
	if len(v.TestMembers) == 0 {
		return SelectTestMembers(v.Stats.Members(), 3, 12345)
	}
	return v.TestMembers
}

// rangeShiftOK reports whether a reconstructed member's global mean sits
// inside the ensemble's distribution, tolerating float rounding at the box
// edges.
func rangeShiftOK(gmBox stats.Boxplot, rm float64) bool {
	if gmBox.Contains(rm) {
		return true
	}
	slack := 1e-9 * (math.Abs(gmBox.Max) + 1)
	return rm >= gmBox.Min-slack && rm <= gmBox.Max+slack
}

// check runs the tests over reconstructions supplied by decode, which
// streams member m's reconstructed values through yield in ascending
// contiguous chunks (the compress.DecodeChunks contract). Stage 2 feeds
// each test member into the streaming metric accumulators (Comparer,
// RMSZAccumulator, MeanAccumulator); stage 3, when withBias, feeds every
// member through the chunked RMSZ reduction for the bias regression, each
// member decoding twice (moments pass, then self-scoring pass). crs holds
// each member's compression ratio, zero when unknown.
func (v *Verifier) check(name string, testMembers []int, crs []float64, withBias bool, decode func(m int, yield func(off int, vals []float32) error) error) (Result, error) {
	vs := v.Stats
	nm := vs.Members()
	res := Result{
		Variable:    vs.Name,
		Codec:       name,
		RMSZBox:     vs.RMSZBox(),
		EnmaxSpread: vs.EnmaxRange(),
	}

	// Stage 2: per-test-member checks.
	gmBox := stats.NewBoxplot(vs.ValidMean)
	res.RhoPass, res.RMSZPass, res.EnmaxPass, res.RangeOK = true, true, true, true
	var cmp metrics.Comparer
	var rzAcc ensemble.RMSZAccumulator
	var meanAcc ensemble.MeanAccumulator
	for _, m := range testMembers {
		data, release := vs.AcquireOriginal(m)
		cmp.Reset(vs.Fill, vs.HasFill)
		rzAcc.Reset(vs.Mom, vs.FillMask)
		meanAcc.Reset(vs.FillMask)
		var err error
		withStage("decode", func() {
			err = decode(m, func(off int, vals []float32) error {
				if off+len(vals) > len(data) {
					return fmt.Errorf("%w: chunk [%d,%d) outside field of %d points", compress.ErrCorrupt, off, off+len(vals), len(data))
				}
				orig := data[off : off+len(vals)]
				cmp.Push(orig, vals, off)
				rzAcc.Push(orig, vals, off)
				meanAcc.Push(vals, off)
				return nil
			})
		})
		release()
		if err != nil {
			return Result{}, fmt.Errorf("pvt: %s member %d: %w", name, m, err)
		}
		withStage("metrics", func() {
			e := cmp.Finish()
			rz := rzAcc.Finish(vs.NPoints)
			res.Checks = append(res.Checks, MemberCheck{
				Member:    m,
				Errors:    e,
				RMSZOrig:  vs.RMSZ[m],
				RMSZRecon: rz,
				CR:        crs[m],
			})
			if !e.PassesCorrelation() {
				res.RhoPass = false
			}
			// Within-distribution check with a 1% slack of the distribution
			// range: when a test member happens to hold the extreme RMSZ, any
			// infinitesimal positive shift would otherwise land "outside"
			// even though the distribution is statistically unchanged. Eq. 8
			// remains the binding criterion.
			slack := 0.01 * res.RMSZBox.Range()
			within := rz >= res.RMSZBox.Min-slack && rz <= res.RMSZBox.Max+slack
			if math.IsNaN(rz) || !within || math.Abs(rz-vs.RMSZ[m]) > v.Thr.RMSZDiff {
				res.RMSZPass = false
			}
			if res.EnmaxSpread <= 0 || math.IsNaN(e.ENMax) ||
				e.ENMax/res.EnmaxSpread > v.Thr.EnmaxRatio {
				res.EnmaxPass = false
			}
			// Range-shift screen: the reconstruction's global (unweighted,
			// valid-point) mean must fall within the ensemble's distribution
			// (precomputed as ValidMean during the build).
			if !rangeShiftOK(gmBox, meanAcc.Finish()) {
				res.RangeOK = false
			}
		})
	}

	// Stage 3: bias test over the full reconstructed ensemble Ẽ.
	if withBias {
		var scores []float64
		var err error
		withStage("rmsz", func() {
			scores, err = ensemble.RMSZScoresChunked(nm, vs.NPoints, vs.FillMask,
				func(m int, yield func(off int, vals []float32) error) error {
					if derr := decode(m, yield); derr != nil {
						return fmt.Errorf("pvt: %s member %d: %w", name, m, derr)
					}
					return nil
				})
		})
		if err != nil {
			return Result{}, err
		}
		res.ReconRMSZ = scores
		res.Bias = stats.LinearFit(vs.RMSZ, res.ReconRMSZ)
		res.BiasPass = !math.IsNaN(res.Bias.Slope) &&
			res.Bias.SlopeWorstCaseDistance() <= v.Thr.SlopeDistance
		var sum float64
		for _, cr := range crs {
			sum += cr
		}
		res.MeanCR = sum / float64(nm)
	} else {
		res.SkippedBias = true
		res.BiasPass = true
		var sum float64
		for _, m := range testMembers {
			sum += crs[m]
		}
		res.MeanCR = sum / float64(len(testMembers))
	}

	res.AllPass = res.RhoPass && res.RMSZPass && res.EnmaxPass && res.BiasPass
	return res, nil
}

// VerifyData runs the four tests against externally produced
// reconstructions of every ensemble member — e.g. data decompressed by
// another tool and read back from files — rather than compressing with a
// Codec. recon must hold one reconstruction per member; each is fed to the
// same checks as Verify as one whole-field chunk. The bias test always
// runs, CRs are unknown to this path and reported as zero, and the
// range-shift screen is not applied (RangeOK is always true).
func (v *Verifier) VerifyData(name string, recon [][]float32) (Result, error) {
	vs := v.Stats
	nm := vs.Members()
	if len(recon) != nm {
		return Result{}, fmt.Errorf("pvt: %d reconstructions for %d members", len(recon), nm)
	}
	for m, r := range recon {
		if len(r) != vs.NPoints {
			return Result{}, fmt.Errorf("pvt: reconstruction %d has %d points, want %d", m, len(r), vs.NPoints)
		}
	}
	res, err := v.check(name, v.testMembers(), make([]float64, nm), true,
		func(m int, yield func(off int, vals []float32) error) error {
			return yield(0, recon[m])
		})
	if err != nil {
		return Result{}, err
	}
	res.RangeOK = true
	return res, nil
}
