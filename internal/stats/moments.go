package stats

// Moments is the structure-of-arrays streaming moment accumulator behind
// the one-pass leave-one-out ensemble statistics (eqs. 6–8): one pass over
// all members accumulates per-point Σx and Σx², and the mean/std of the
// sub-ensemble excluding any single member follow algebraically in O(1)
// per point. It computes exactly the same quantities as LeaveOneOut but
// stores the sums in flat parallel slices, which halves the memory stride
// of the scoring hot loop and lets point ranges be accumulated by
// independent workers.
type Moments struct {
	N     []int32   // members accumulated per point
	Sum   []float64 // Σ x_m per point
	SumSq []float64 // Σ x_m² per point
}

// NewMoments returns an accumulator for n points.
func NewMoments(n int) *Moments {
	return &Moments{
		N:     make([]int32, n),
		Sum:   make([]float64, n),
		SumSq: make([]float64, n),
	}
}

// Len returns the number of points.
func (mo *Moments) Len() int { return len(mo.Sum) }

// AddMemberChunk folds one chunk of a member's values — the points
// [off, off+len(vals)) — into every non-masked point of the accumulator.
// Accumulation order per point is the call order, so adding members
// 0..M-1 chunk by chunk yields sums bit-identical to a serial per-point
// loop however the chunks partition the points; the fused decode path
// drives this straight from a codec's chunk iterator. mask (indexed by
// absolute point, like off) may be nil.
func (mo *Moments) AddMemberChunk(vals []float32, mask []bool, off int) {
	sum, sumsq, cnt := mo.Sum, mo.SumSq, mo.N
	if mask == nil {
		for j, v := range vals {
			i := off + j
			x := float64(v)
			cnt[i]++
			sum[i] += x
			sumsq[i] += x * x
		}
		return
	}
	for j, v := range vals {
		i := off + j
		if mask[i] {
			continue
		}
		x := float64(v)
		cnt[i]++
		sum[i] += x
		sumsq[i] += x * x
	}
}

// At returns the point's accumulated sums as a LeaveOneOut value,
// preserving the older element-wise API for callers that hold one point.
func (mo *Moments) At(i int) LeaveOneOut {
	return LeaveOneOut{N: int(mo.N[i]), Sum: mo.Sum[i], SumSq: mo.SumSq[i]}
}
