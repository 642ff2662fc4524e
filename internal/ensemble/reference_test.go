package ensemble

import (
	"math"

	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// This file keeps the original whole-field loops of the RMSZ scoring, the
// masked mean and the member-by-member bias-test scores. Production code
// runs only the chunked accumulators (RMSZAccumulator, MeanAccumulator,
// RMSZScoresChunked); these loops are the independent bit-identity
// references the equivalence tests compare them against.

// addMember folds one member's values into every non-masked point of
// [lo, hi). mask may be nil. Accumulation order per point is the call
// order, so adding members 0..M-1 yields sums bit-identical to a serial
// per-point loop regardless of how [lo, hi) ranges partition the points.
func addMember(mo *stats.Moments, data []float32, mask []bool, lo, hi int) {
	sum, sumsq, cnt := mo.Sum, mo.SumSq, mo.N
	if mask == nil {
		for i := lo; i < hi; i++ {
			x := float64(data[i])
			cnt[i]++
			sum[i] += x
			sumsq[i] += x * x
		}
		return
	}
	for i := lo; i < hi; i++ {
		if mask[i] {
			continue
		}
		x := float64(data[i])
		cnt[i]++
		sum[i] += x
		sumsq[i] += x * x
	}
}

// referenceScoreRMSZ is the whole-field eq. 6–7 scoring loop: Z-scores of
// data against the leave-one-out statistics of mo with exclude's values
// removed.
// Masked fill points and points with zero ensemble spread (σ = 0, which
// includes constant sub-ensembles) contribute nothing — they are excluded
// from the mean, exactly as a NaN-free implementation of eq. 7 requires —
// and a variable with no valid points at all scores NaN.
func referenceScoreRMSZ(mo *stats.Moments, exclude, data []float32, mask []bool) float64 {
	cnts, sums, sumsqs := mo.N, mo.Sum, mo.SumSq
	var sum float64
	var cnt int
	for i, v := range data {
		if mask != nil && mask[i] {
			continue
		}
		// Leave-one-out moments, inlined from stats.LeaveOneOut.Excluding with
		// identical operation order. n < 2 is the σ = NaN case; vr == 0 is
		// the zero-spread case; both skip the point.
		n := int(cnts[i]) - 1
		if n < 2 {
			continue
		}
		x := float64(exclude[i])
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
	if cnt == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(cnt))
}

// referenceMaskedMean averages data over non-masked points (mask may be
// nil).
func referenceMaskedMean(data []float32, mask []bool) float64 {
	var sum float64
	var n int
	for i, v := range data {
		if mask != nil && mask[i] {
			continue
		}
		sum += float64(v)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// referenceRMSZScoresStream scores every member of an ensemble supplied
// member-by-member against the ensemble's own leave-one-out statistics:
// acquire(m) returns member m's data plus a release func. Pass A folds
// chunks of members (acquired in parallel, folded in member order) into the
// moments; pass B re-acquires each member and scores it.
func referenceRMSZScoresStream(nm, npoints int, fillMask []bool, acquire func(m int) ([]float32, func())) []float64 {
	if nm == 0 {
		return nil
	}
	mo := stats.NewMoments(npoints)
	chunk := chunkSize()
	for base := 0; base < nm; base += chunk {
		end := base + chunk
		if end > nm {
			end = nm
		}
		data := make([][]float32, end-base)
		rel := make([]func(), end-base)
		par.Each(len(data), func(j int) error {
			data[j], rel[j] = acquire(base + j)
			return nil
		})
		par.Ranges(npoints, pointGrain, func(lo, hi int) {
			for _, d := range data {
				addMember(mo, d, fillMask, lo, hi)
			}
		})
		for _, r := range rel {
			r()
		}
	}
	out := make([]float64, nm)
	par.Each(nm, func(m int) error {
		data, release := acquire(m)
		out[m] = referenceScoreRMSZ(mo, data, data, fillMask)
		release()
		return nil
	})
	return out
}
