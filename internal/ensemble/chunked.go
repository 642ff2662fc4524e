// Chunked scoring accumulators: the RMSZ and masked-mean reductions consume
// values chunk by chunk, so the fused verification path scores
// reconstructions as they decode and no full reconstructed field exists on
// that path. The whole-field forms (scoreRMSZ, MaskedMean) are one Push.
// Accumulation order is the point index order whatever the chunking, so the
// scores do not depend on chunk sizes — pinned against whole-field
// reference loops by the equivalence tests.

package ensemble

import (
	"fmt"
	"math"

	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// RMSZAccumulator computes the eq. 6–7 RMSZ of scored data against the
// leave-one-out statistics of the sub-ensemble that excludes one member:
// chunks of the scored data (with the matching chunk of the excluded
// member's original values) are pushed in ascending contiguous order, and
// Finish returns the score. Out-of-order or mismatched pushes poison the
// accumulator and Finish returns NaN.
type RMSZAccumulator struct {
	mo   *stats.Moments
	mask []bool

	sum   float64
	cnt   int
	total int
	bad   bool
}

// Reset prepares the accumulator to score against the leave-one-out
// statistics of mo (with mask marking fill points; may be nil).
func (a *RMSZAccumulator) Reset(mo *stats.Moments, mask []bool) {
	*a = RMSZAccumulator{mo: mo, mask: mask}
}

// Push accumulates one chunk: excl holds the excluded member's original
// values and vals the scored (typically reconstructed) values of points
// [off, off+len(vals)).
func (a *RMSZAccumulator) Push(excl, vals []float32, off int) {
	if len(excl) != len(vals) || off != a.total || off+len(vals) > a.mo.Len() {
		a.bad = true
		return
	}
	a.total += len(vals)
	cnts, sums, sumsqs := a.mo.N, a.mo.Sum, a.mo.SumSq
	mask := a.mask
	sum, cnt := a.sum, a.cnt
	for j, v := range vals {
		i := off + j
		if mask != nil && mask[i] {
			continue
		}
		// Leave-one-out moments, inlined from stats.LeaveOneOut.Excluding with
		// identical operation order. n < 2 is the σ = NaN case; vr == 0 is
		// the zero-spread case; both skip the point, so masked fill points
		// and zero-spread points (including constant sub-ensembles) are
		// excluded from the mean, as a NaN-free eq. 7 requires.
		n := int(cnts[i]) - 1
		if n < 2 {
			continue
		}
		x := float64(excl[j])
		s := sums[i] - x
		ss := sumsqs[i] - x*x
		mean := s / float64(n)
		vr := (ss - s*s/float64(n)) / float64(n-1)
		if !(vr > 0) { // zero spread, negative cancellation, or NaN input
			continue
		}
		std := math.Sqrt(vr)
		z := (float64(v) - mean) / std
		sum += z * z
		cnt++
	}
	a.sum, a.cnt = sum, cnt
}

// Finish returns the RMSZ over the pushed chunks. npoints is the expected
// field size; a short or poisoned accumulation returns NaN, and so does a
// field with no valid points.
func (a *RMSZAccumulator) Finish(npoints int) float64 {
	if a.bad || a.total != npoints || a.cnt == 0 {
		return math.NaN()
	}
	return math.Sqrt(a.sum / float64(a.cnt))
}

// MeanAccumulator averages values over non-masked points, chunk by chunk.
type MeanAccumulator struct {
	mask []bool
	sum  float64
	n    int
}

// Reset prepares the accumulator with the fill mask (may be nil).
func (a *MeanAccumulator) Reset(mask []bool) {
	*a = MeanAccumulator{mask: mask}
}

// Push accumulates the values of points [off, off+len(vals)).
func (a *MeanAccumulator) Push(vals []float32, off int) {
	sum, n := a.sum, a.n
	if a.mask == nil {
		for _, v := range vals {
			sum += float64(v)
			n++
		}
	} else {
		for j, v := range vals {
			if a.mask[off+j] {
				continue
			}
			sum += float64(v)
			n++
		}
	}
	a.sum, a.n = sum, n
}

// Finish returns the mean over accumulated points, NaN when none.
func (a *MeanAccumulator) Finish() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// RMSZScoresChunked computes the eq. 7 RMSZ of every member of an
// arbitrary ensemble against that ensemble's own leave-one-out statistics.
// The paper's bias test applies this to the fully reconstructed ensemble Ẽ
// ("substituting Ẽ for E"). fillMask marks points to skip. The ensemble is
// supplied chunk by chunk: decode(m, yield) streams member m's values in
// ascending contiguous chunks (the compress.DecodeChunks contract). Pass A
// folds each member's chunks into the moments serially in member order, so
// every point accumulates members in index order; pass B re-decodes each
// member in parallel and self-scores it. No full member field is ever
// materialized, and at most O(workers) chunk buffers are live. A decode
// error aborts and is returned, and so does a member that does not cover
// exactly npoints points.
func RMSZScoresChunked(nm, npoints int, fillMask []bool, decode func(m int, yield func(off int, vals []float32) error) error) ([]float64, error) {
	if nm == 0 {
		return nil, nil
	}
	mo := stats.NewMoments(npoints)
	for m := 0; m < nm; m++ {
		total := 0
		err := decode(m, func(off int, vals []float32) error {
			if off != total || off+len(vals) > npoints {
				return fmt.Errorf("ensemble: member %d chunk [%d,%d) out of order in field of %d points", m, off, off+len(vals), npoints)
			}
			mo.AddMemberChunk(vals, fillMask, off)
			total = off + len(vals)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if total != npoints {
			return nil, fmt.Errorf("ensemble: member %d decoded %d of %d points", m, total, npoints)
		}
	}
	out := make([]float64, nm)
	err := par.Each(nm, func(m int) error {
		var acc RMSZAccumulator
		acc.Reset(mo, fillMask)
		err := decode(m, func(off int, vals []float32) error {
			// Self-scoring: the scored values are also the excluded ones.
			acc.Push(vals, vals, off)
			return nil
		})
		if err != nil {
			return err
		}
		out[m] = acc.Finish(npoints)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
