package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"climcompress/internal/field"
	"climcompress/internal/grid"
	"climcompress/internal/stats"
)

// naiveRMSZ recomputes member m's leave-one-out RMSZ from scratch: at every
// point, the mean and std of the sub-ensemble {E \ m} via a fresh Welford
// accumulation — the O(M²·N) textbook formulation of eqs. 6–7 that the
// streaming-moment engine must reproduce.
func naiveRMSZ(members [][]float32, m int, mask []bool) float64 {
	n := len(members[m])
	var sum float64
	var cnt int
	for p := 0; p < n; p++ {
		if mask != nil && mask[p] {
			continue
		}
		var w stats.Welford
		for o := range members {
			if o == m {
				continue
			}
			w.Add(float64(members[o][p]))
		}
		std := w.StdDev()
		if std == 0 || math.IsNaN(std) {
			continue
		}
		z := (float64(members[m][p]) - w.Mean()) / std
		sum += z * z
		cnt++
	}
	if cnt == 0 {
		return math.NaN()
	}
	return math.Sqrt(sum / float64(cnt))
}

// relDiff returns |a-b| / max(|a|, |b|, 1).
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}

// TestGoldenMomentVsNaive proves the moment formulation: on randomized
// inputs the streaming-moment RMSZ agrees with the naive from-scratch
// leave-one-out computation to 1e-10 relative.
func TestGoldenMomentVsNaive(t *testing.T) {
	const tol = 1e-10
	for _, sigma := range []float64{0.05, 1.0, 40.0} {
		fields := syntheticFields(17, sigma, int64(sigma*100)+21)
		vs, err := Build(fields)
		if err != nil {
			t.Fatal(err)
		}
		members := make([][]float32, len(fields))
		for m, f := range fields {
			members[m] = f.Data
		}
		for m := range members {
			want := naiveRMSZ(members, m, vs.FillMask)
			if d := relDiff(vs.RMSZ[m], want); d > tol {
				t.Fatalf("sigma=%v member %d: moment RMSZ %v vs naive %v (rel %v)",
					sigma, m, vs.RMSZ[m], want, d)
			}
		}
		// RMSZScoresChunked (the bias-test path) against the same golden values.
		scores := wholeMemberScores(t, members, vs.FillMask)
		for m := range members {
			want := naiveRMSZ(members, m, vs.FillMask)
			if d := relDiff(scores[m], want); d > tol {
				t.Fatalf("sigma=%v RMSZScoresChunked[%d] = %v vs naive %v (rel %v)",
					sigma, m, scores[m], want, d)
			}
		}
	}
}

// TestGoldenDegenerateInputs exercises the constant and zero-variance
// paths: points where every member agrees exactly (σ = 0) must be excluded
// from the score, not propagated as NaN or Inf, in both formulations.
func TestGoldenDegenerateInputs(t *testing.T) {
	const tol = 1e-10
	g := grid.Test()
	rng := rand.New(rand.NewSource(77))
	nm := 11
	fields := make([]*field.Field, nm)
	for m := range fields {
		f := field.New("D", "1", g, false)
		for i := range f.Data {
			switch {
			case i%5 == 0: // constant across members: zero ensemble spread
				f.Data[i] = 42
			case i%5 == 1: // constant except via float32 rounding
				f.Data[i] = float32(1e8)
			default:
				f.Data[i] = float32(3 + rng.NormFloat64())
			}
		}
		fields[m] = f
	}
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]float32, nm)
	for m, f := range fields {
		members[m] = f.Data
	}
	for m := range members {
		if math.IsNaN(vs.RMSZ[m]) || math.IsInf(vs.RMSZ[m], 0) {
			t.Fatalf("member %d RMSZ = %v on degenerate input", m, vs.RMSZ[m])
		}
		want := naiveRMSZ(members, m, vs.FillMask)
		if d := relDiff(vs.RMSZ[m], want); d > tol {
			t.Fatalf("degenerate member %d: moment %v vs naive %v (rel %v)", m, vs.RMSZ[m], want, d)
		}
	}

	// Fully constant ensemble: no point has spread, so every score is NaN
	// (no valid points) rather than Inf.
	flat := make([]*field.Field, nm)
	for m := range flat {
		f := field.New("F", "1", g, false)
		for i := range f.Data {
			f.Data[i] = 7
		}
		flat[m] = f
	}
	vsFlat, err := Build(flat)
	if err != nil {
		t.Fatal(err)
	}
	for m, r := range vsFlat.RMSZ {
		if !math.IsNaN(r) {
			t.Fatalf("flat ensemble member %d RMSZ = %v, want NaN", m, r)
		}
	}
}

// TestFullyMaskedColumn is the regression test for the fill guard: a
// variable whose every point is the fill sentinel must produce NaN scores
// (no valid points) without poisoning the accumulators or dividing by zero.
func TestFullyMaskedColumn(t *testing.T) {
	g := grid.Test()
	nm := 7
	fields := make([]*field.Field, nm)
	for m := range fields {
		f := field.New("M", "1", g, false)
		f.HasFill = true
		for i := range f.Data {
			f.Data[i] = f.Fill
		}
		fields[m] = f
	}
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	for i, masked := range vs.FillMask {
		if !masked {
			t.Fatalf("point %d not masked", i)
		}
		if vs.Mom.N[i] != 0 {
			t.Fatalf("masked point %d accumulated %d members", i, vs.Mom.N[i])
		}
	}
	for m := range fields {
		if !math.IsNaN(vs.RMSZ[m]) {
			t.Fatalf("member %d RMSZ = %v, want NaN for fully-masked variable", m, vs.RMSZ[m])
		}
	}
	if !math.IsNaN(vs.SigmaMedian()) {
		t.Fatalf("SigmaMedian = %v, want NaN", vs.SigmaMedian())
	}
	// The bias-test scorer with the same all-true mask.
	members := make([][]float32, nm)
	for m, f := range fields {
		members[m] = f.Data
	}
	for m, s := range wholeMemberScores(t, members, vs.FillMask) {
		if !math.IsNaN(s) {
			t.Fatalf("RMSZScoresChunked[%d] = %v, want NaN", m, s)
		}
	}
}
