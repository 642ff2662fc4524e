package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"climcompress/internal/field"
	"climcompress/internal/grid"
	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// syntheticFields builds an ensemble of nm member fields where point i has
// ensemble mean mu(i) and std sigma, using plain Gaussian noise.
func syntheticFields(nm int, sigma float64, seed int64) []*field.Field {
	g := grid.Test()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*field.Field, nm)
	for m := range out {
		f := field.New("X", "1", g, false)
		for i := range f.Data {
			mu := 10 + float64(i%7)
			f.Data[i] = float32(mu + sigma*rng.NormFloat64())
		}
		out[m] = f
	}
	return out
}

func TestBuildBasics(t *testing.T) {
	fields := syntheticFields(21, 1.0, 1)
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Members() != 21 {
		t.Fatalf("members = %d", vs.Members())
	}
	if len(vs.RMSZ) != 21 || len(vs.Enmax) != 21 || len(vs.GlobalMean) != 21 {
		t.Fatal("per-member arrays wrong length")
	}
	// For Gaussian members, RMSZ of each original member should be near 1.
	for m, r := range vs.RMSZ {
		if r < 0.7 || r > 1.4 {
			t.Fatalf("member %d RMSZ = %v, expected ≈ 1", m, r)
		}
	}
	box := vs.RMSZBox()
	if box.N != 21 || box.Min <= 0 {
		t.Fatalf("bad RMSZ box %+v", box)
	}
}

// rmszOf is the eq. 6–7 score of data against the leave-one-out statistics
// of {E \ m}: data may be member m's original values or a reconstruction of
// them, and the excluded value is always member m's original one.
func rmszOf(vs *VarStats, m int, data []float32) float64 {
	orig, release := vs.AcquireOriginal(m)
	defer release()
	return scoreRMSZ(vs.Mom, orig, data, vs.FillMask)
}

// wholeMemberScores is RMSZScoresChunked with every member yielded whole.
func wholeMemberScores(t testing.TB, members [][]float32, mask []bool) []float64 {
	t.Helper()
	scores, err := RMSZScoresChunked(len(members), len(members[0]), mask,
		func(m int, yield func(off int, vals []float32) error) error {
			return yield(0, members[m])
		})
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

func TestRMSZDetectsPerturbation(t *testing.T) {
	fields := syntheticFields(21, 1.0, 2)
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	m := 3
	orig := rmszOf(vs, m, fields[m].Data)
	if math.Abs(orig-vs.RMSZ[m]) > 1e-12 {
		t.Fatal("RMSZ of original data disagrees with stored RMSZ")
	}
	// A small perturbation (well under sigma) moves RMSZ only slightly.
	small := make([]float32, len(fields[m].Data))
	for i, v := range fields[m].Data {
		small[i] = v + 0.01
	}
	if d := math.Abs(rmszOf(vs, m, small) - orig); d > 0.05 {
		t.Fatalf("tiny perturbation moved RMSZ by %v", d)
	}
	// A perturbation comparable to sigma moves RMSZ a lot.
	big := make([]float32, len(fields[m].Data))
	for i, v := range fields[m].Data {
		big[i] = v + 3
	}
	if d := math.Abs(rmszOf(vs, m, big) - orig); d < 0.5 {
		t.Fatalf("large perturbation moved RMSZ by only %v", d)
	}
}

func TestEnmaxWithinExpectedScale(t *testing.T) {
	fields := syntheticFields(31, 1.0, 3)
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	// Values span roughly [10-3σ, 16+3σ]; max pairwise diff at a point is a
	// few sigma; normalized by range (≈12) it should be small but nonzero.
	for m, e := range vs.Enmax {
		if e <= 0 || e > 1 {
			t.Fatalf("member %d Enmax = %v", m, e)
		}
	}
	if vs.EnmaxRange() <= 0 {
		t.Fatal("Enmax distribution has no spread")
	}
}

func TestEnmaxExcludesSelf(t *testing.T) {
	// Make member 0 an extreme outlier at one point; other members' Enmax
	// must reflect their distance to it, while member 0's own Enmax must
	// exclude itself.
	fields := syntheticFields(11, 0.1, 4)
	fields[0].Data[5] += 50
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	// Member 1 sees the outlier: big Enmax (distance ≈ 50 / range).
	if vs.Enmax[1] < 0.1 {
		t.Fatalf("member 1 should see the outlier, Enmax = %v", vs.Enmax[1])
	}
	// Member 0 measures against others at that point (who agree with each
	// other), so its Enmax is also large — but computed via min2/max2:
	// distance ≈ 50 normalized by member 0's own (inflated) range.
	if math.IsNaN(vs.Enmax[0]) {
		t.Fatal("member 0 Enmax is NaN")
	}
}

func TestFillMaskSkipsPoints(t *testing.T) {
	fields := syntheticFields(7, 1.0, 5)
	for _, f := range fields {
		f.HasFill = true
		f.Data[0] = f.Fill
		f.Data[10] = f.Fill
	}
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	if !vs.FillMask[0] || !vs.FillMask[10] || vs.FillMask[1] {
		t.Fatal("fill mask wrong")
	}
	if vs.Mom.N[0] != 0 {
		t.Fatal("fill point accumulated values")
	}
	if math.IsNaN(vs.RMSZ[0]) {
		t.Fatal("RMSZ should ignore fill points, not become NaN")
	}
}

func TestSigmaMedian(t *testing.T) {
	fields := syntheticFields(51, 2.0, 6)
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	med := vs.SigmaMedian()
	if med < 1.5 || med > 2.5 {
		t.Fatalf("SigmaMedian = %v, want ≈ 2", med)
	}
}

func TestRMSZScoresSelfConsistent(t *testing.T) {
	fields := syntheticFields(21, 1.0, 7)
	vs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]float32, len(fields))
	for m, f := range fields {
		members[m] = f.Data
	}
	scores := wholeMemberScores(t, members, vs.FillMask)
	for m := range scores {
		if math.Abs(scores[m]-vs.RMSZ[m]) > 1e-9 {
			t.Fatalf("RMSZScoresChunked[%d] = %v, VarStats RMSZ = %v", m, scores[m], vs.RMSZ[m])
		}
	}
}

func TestRMSZScoresOfIdenticalEnsembles(t *testing.T) {
	// The bias test's ideal case: Ẽ == E gives identical score vectors, so
	// the regression is exactly slope 1 / intercept 0.
	fields := syntheticFields(21, 1.0, 8)
	a := make([][]float32, len(fields))
	for m, f := range fields {
		a[m] = f.Data
	}
	s1 := wholeMemberScores(t, a, nil)
	s2 := wholeMemberScores(t, a, nil)
	reg := stats.LinearFit(s1, s2)
	if math.Abs(reg.Slope-1) > 1e-12 || math.Abs(reg.Intercept) > 1e-12 {
		t.Fatalf("identical ensembles: slope %v intercept %v", reg.Slope, reg.Intercept)
	}
}

func TestBuildErrors(t *testing.T) {
	fields := syntheticFields(2, 1, 9)
	if _, err := Build(fields); err == nil {
		t.Fatal("too few members should error")
	}
	fields = syntheticFields(5, 1, 10)
	fields[3] = field.New("X", "1", grid.Small(), false)
	if _, err := Build(fields); err == nil {
		t.Fatal("mismatched field sizes should error")
	}
}

func TestGlobalMeansTight(t *testing.T) {
	fields := syntheticFields(31, 1.0, 11)
	vs, _ := Build(fields)
	box := vs.GlobalMeanBox()
	// Global means average ~10^2 points of unit noise: spread well under 1.
	if box.Range() > 1 {
		t.Fatalf("global means spread %v too wide", box.Range())
	}
}

// TestBuildSteadyStateAllocs pins Build's allocations over 31 test-grid
// members at pool width 1; the count depends on the width, so the width is
// fixed here. Nearly all of the budget is per member (about 7 each):
// buildStream's one-member chunk slices and closures, Field.GlobalMean's
// grid.AreaWeights vector and par.Ranges' closure.
func TestBuildSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	old := par.Width()
	par.SetWidth(1)
	defer par.SetWidth(old)
	fields := syntheticFields(31, 1.0, 12)
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := Build(fields); err != nil {
			t.Fatal(err)
		}
	}); allocs > 233 {
		t.Errorf("Build allocates %.0f/op, want ≤ 233", allocs)
	}
}

func BenchmarkBuild(b *testing.B) {
	fields := syntheticFields(31, 1.0, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(fields); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoreRMSZ(b *testing.B) {
	fields := syntheticFields(31, 1.0, 13)
	vs, _ := Build(fields)
	data := fields[5].Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rmszOf(vs, 5, data)
	}
}
