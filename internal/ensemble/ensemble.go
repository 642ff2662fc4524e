// Package ensemble builds the per-variable statistics of the CESM-PVT
// verification ensemble (§4.3): leave-one-out per-point mean/std for the
// Z-scores of eq. 6, the per-member RMSZ distribution of eq. 7, the
// normalized maximum pointwise error distribution of eq. 10, per-member
// ranges and global means.
//
// The engine is one-pass and parallel: a single sweep over all members
// accumulates per-point streaming moments (Σx, Σx²) from which every
// leave-one-out mean/std follows algebraically in O(1) — O(M·N) for the
// whole M-member analysis — and the three stages (per-member summaries,
// per-point aggregation, per-member scoring) each fan out over the shared
// worker pool (internal/par). Point-range workers accumulate members in
// index order, so results are bit-identical to the serial formulation.
package ensemble

import (
	"math"
	"sort"

	"climcompress/internal/field"
	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// Source supplies ensemble member fields for the catalog variables.
// model.Generator implements it. Implementations must be safe for
// concurrent Field calls (CollectFields fans out over the worker pool).
type Source interface {
	Members() int
	Field(varIdx, member int) *field.Field
}

// VarStats holds one variable's ensemble statistics. It holds no member
// data: the verification tests re-acquire a member's original values from
// the source the statistics were built from (AcquireOriginal).
type VarStats struct {
	Name    string
	NPoints int // stored points (including fill positions)

	HasFill  bool
	Fill     float32
	FillMask []bool // true where every member holds the fill sentinel

	// Per-point streaming moments over members (fill points stay empty).
	Mom *stats.Moments

	// Two smallest / largest member values per point, with the member that
	// holds the extreme, enabling exact max-over-others (eq. 10).
	min1, min2 []float32
	max1, max2 []float32
	min1m      []int32
	max1m      []int32

	// Member data is re-acquired from src on demand (AcquireOriginal).
	src    Source
	varIdx int
	nm     int

	RangePerMember []float64 // R_X^m over valid points
	RMSZ           []float64 // eq. 7 for each original member
	Enmax          []float64 // eq. 10 for each member
	GlobalMean     []float64 // area-weighted global mean per member
	ValidMean      []float64 // unweighted mean over valid points per member
}

// CollectFields materializes all member fields of one variable, generating
// members in parallel on the shared worker pool.
func CollectFields(src Source, varIdx int) []*field.Field {
	out := make([]*field.Field, src.Members())
	par.Each(len(out), func(m int) error {
		out[m] = src.Field(varIdx, m)
		return nil
	})
	return out
}

// pointGrain is the minimum per-worker slice of points for parallel
// per-point stages; small enough to balance, large enough to amortize.
const pointGrain = 4096

// Build computes the ensemble statistics for one variable from its member
// fields (as produced by CollectFields). It is BuildStream over the given
// fields. The caller keeps ownership of them and must not release them
// while the statistics are in use: AcquireOriginal hands out their data
// slices.
func Build(fields []*field.Field) (*VarStats, error) {
	return buildStream(fieldSource(fields), 0, -1, nil)
}

// fieldSource serves already materialized member fields. The caller owns
// them, so Release leaves them alone.
type fieldSource []*field.Field

func (s fieldSource) Members() int                { return len(s) }
func (s fieldSource) Field(_, m int) *field.Field { return s[m] }
func (fieldSource) Release(*field.Field)          {}

// allocPerMember carves the five per-member vectors out of one backing
// array (they are fixed-size and never appended to).
func (vs *VarStats) allocPerMember() {
	nm := vs.nm
	per := make([]float64, 5*nm)
	vs.RangePerMember = per[0*nm : 1*nm : 1*nm]
	vs.GlobalMean = per[1*nm : 2*nm : 2*nm]
	vs.RMSZ = per[2*nm : 3*nm : 3*nm]
	vs.Enmax = per[3*nm : 4*nm : 4*nm]
	vs.ValidMean = per[4*nm : 5*nm : 5*nm]
}

// initExtremes resets the running two-extreme trackers over [lo, hi). Must
// run exactly once per point before the first foldRange over it.
func (vs *VarStats) initExtremes(lo, hi int) {
	min1, min2, max1, max2 := vs.min1, vs.min2, vs.max1, vs.max2
	for i := lo; i < hi; i++ {
		min1[i] = float32(math.Inf(1))
		min2[i] = float32(math.Inf(1))
		max1[i] = float32(math.Inf(-1))
		max2[i] = float32(math.Inf(-1))
	}
}

// foldRange folds the given members (whose ensemble indices start at base)
// into the per-point aggregates over [lo, hi), in slice order. Accumulation
// order per point is the fold order, so feeding members 0..M-1 through any
// chunking yields sums bit-identical to one pass over the whole ensemble.
func (vs *VarStats) foldRange(members [][]float32, base, lo, hi int) {
	cnt, sum, sumsq := vs.Mom.N, vs.Mom.Sum, vs.Mom.SumSq
	min1, min2, max1, max2 := vs.min1, vs.min2, vs.max1, vs.max2
	min1m, max1m := vs.min1m, vs.max1m
	mask := vs.FillMask
	for j, data := range members {
		mi := int32(base + j)
		for i := lo; i < hi; i++ {
			if mask[i] {
				continue
			}
			v := data[i]
			x := float64(v)
			cnt[i]++
			sum[i] += x
			sumsq[i] += x * x
			if v < min1[i] {
				min2[i] = min1[i]
				min1[i] = v
				min1m[i] = mi
			} else if v < min2[i] {
				min2[i] = v
			}
			if v > max1[i] {
				max2[i] = max1[i]
				max1[i] = v
				max1m[i] = mi
			} else if v > max2[i] {
				max2[i] = v
			}
		}
	}
}

// Members returns the ensemble size.
func (vs *VarStats) Members() int { return vs.nm }

// AcquireOriginal returns member m's original data plus a release func the
// caller must invoke when done with the slice. The member comes from the
// source the statistics were built from: Build hands out the caller's
// field with a no-op release, and BuildStream regenerates the member
// (deterministic, so bit-identical to the build pass) and releases it back
// to its source.
func (vs *VarStats) AcquireOriginal(m int) ([]float32, func()) {
	f := vs.src.Field(vs.varIdx, m)
	return f.Data, func() { releaseField(vs.src, f) }
}

// scoreRMSZ is the eq. 6–7 score of data against the leave-one-out
// statistics of mo with exclude's values removed: the RMSZAccumulator fed
// the whole field as one chunk. Masked fill points and points with zero
// ensemble spread contribute nothing, and a variable with no valid points
// at all scores NaN.
func scoreRMSZ(mo *stats.Moments, exclude, data []float32, mask []bool) float64 {
	var a RMSZAccumulator
	a.Reset(mo, mask)
	a.Push(exclude, data, 0)
	return a.Finish(len(data))
}

// enmaxData computes eq. 10 for member m (whose values are data): the
// maximum over grid points of the maximum pointwise distance to any other
// member, normalized by member m's range. The per-point maximum over others
// is max(|x−min'|, |max'−x|) where min'/max' exclude member m itself.
func (vs *VarStats) enmaxData(m int, data []float32) float64 {
	var maxDiff float64
	for i, v := range data {
		if vs.FillMask[i] {
			continue
		}
		lo := vs.min1[i]
		if vs.min1m[i] == int32(m) {
			lo = vs.min2[i]
		}
		hi := vs.max1[i]
		if vs.max1m[i] == int32(m) {
			hi = vs.max2[i]
		}
		if d := float64(v - lo); d > maxDiff {
			maxDiff = d
		}
		if d := float64(hi - v); d > maxDiff {
			maxDiff = d
		}
	}
	r := vs.RangePerMember[m]
	if r <= 0 {
		return math.NaN()
	}
	return maxDiff / r
}

// RMSZBox returns the five-number summary of the original RMSZ distribution
// (the histogram of Figure 2).
func (vs *VarStats) RMSZBox() stats.Boxplot { return stats.NewBoxplot(vs.RMSZ) }

// EnmaxBox returns the summary of the eq. 10 distribution (Figure 3).
func (vs *VarStats) EnmaxBox() stats.Boxplot { return stats.NewBoxplot(vs.Enmax) }

// EnmaxRange returns R_{E_nmax}: the spread of the eq. 10 distribution used
// as the denominator of the eq. 11 acceptance test.
func (vs *VarStats) EnmaxRange() float64 {
	b := vs.EnmaxBox()
	return b.Max - b.Min
}

// GlobalMeanBox summarizes the per-member global means, used for the
// paper's range-shift screen.
func (vs *VarStats) GlobalMeanBox() stats.Boxplot { return stats.NewBoxplot(vs.GlobalMean) }

// SigmaMedian returns the median per-point ensemble standard deviation over
// valid points — the scale the paper used (via the RMSZ ensemble test) to
// pick GRIB2's decimal scale factor per variable.
func (vs *VarStats) SigmaMedian() float64 {
	sigmas := make([]float64, 0, vs.NPoints)
	mo := vs.Mom
	for i := 0; i < mo.Len(); i++ {
		if vs.FillMask[i] || mo.N[i] < 2 {
			continue
		}
		// Full-ensemble std from the aggregates.
		n := float64(mo.N[i])
		mean := mo.Sum[i] / n
		v := (mo.SumSq[i] - mo.Sum[i]*mean) / (n - 1)
		if v < 0 {
			v = 0
		}
		sigmas = append(sigmas, math.Sqrt(v))
	}
	if len(sigmas) == 0 {
		return math.NaN()
	}
	sort.Float64s(sigmas)
	return sigmas[len(sigmas)/2]
}

// MaskedMean averages data over non-masked points (mask may be nil). This is
// the unweighted global mean of the CESM-PVT range-shift screen; VarStats
// precomputes it per member as ValidMean. It is MeanAccumulator fed the
// whole field as one chunk.
func MaskedMean(data []float32, mask []bool) float64 {
	var a MeanAccumulator
	a.Reset(mask)
	a.Push(data, 0)
	return a.Finish()
}
