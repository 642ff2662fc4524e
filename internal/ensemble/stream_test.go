package ensemble

import (
	"math"
	"sync/atomic"
	"testing"

	"climcompress/internal/field"
	"climcompress/internal/grid"
	"climcompress/internal/par"
	"climcompress/internal/stats"
)

// streamSource is a deterministic Source that tracks field residency: every
// Field call bumps the outstanding count, every Release drops it, and the
// high-water mark is recorded. Regenerating a member always yields the same
// bits, matching the contract BuildStream relies on.
type streamSource struct {
	g        *grid.Grid
	nm       int
	withFill bool

	outstanding atomic.Int64
	peak        atomic.Int64
	gets        atomic.Int64
}

func (s *streamSource) Members() int { return s.nm }

func (s *streamSource) Field(varIdx, m int) *field.Field {
	f := field.New("X", "1", s.g, false)
	f.HasFill = s.withFill
	for i := range f.Data {
		f.Data[i] = s.value(varIdx, m, i)
	}
	s.gets.Add(1)
	cur := s.outstanding.Add(1)
	for {
		p := s.peak.Load()
		if cur <= p || s.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	return f
}

func (s *streamSource) Release(f *field.Field) {
	s.outstanding.Add(-1)
	f.Release()
}

// value is a pure function of (varIdx, member, point): a smooth base plus
// hash noise, with a fixed fill pattern shared by all members.
func (s *streamSource) value(varIdx, m, i int) float32 {
	if s.withFill && i%17 == 0 {
		return field.DefaultFill
	}
	x := uint64(varIdx)*0x9e3779b97f4a7c15 + uint64(m)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 27
	return float32(10+i%7) + float32(x%100000)/50000 - 1
}

// materialize builds the full field set the way CollectFields would, but
// without touching the residency counters (plain field.New allocations).
func (s *streamSource) materialize(varIdx int) []*field.Field {
	out := make([]*field.Field, s.nm)
	for m := range out {
		f := field.New("X", "1", s.g, false)
		f.HasFill = s.withFill
		for i := range f.Data {
			f.Data[i] = s.value(varIdx, m, i)
		}
		out[m] = f
	}
	return out
}

// eqF64 compares float64 slices bit-for-bit (NaN == NaN).
func eqF64(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v", label, i, a[i], b[i])
		}
	}
}

// TestBuildStreamBitIdentical checks that stats built from caller-owned
// fields and from a regenerating source agree bit for bit. Build folds one
// member per chunk and BuildStream three, so it also pins that the
// statistics do not depend on the chunking.
func TestBuildStreamBitIdentical(t *testing.T) {
	defer par.SetWidth(0)
	for _, withFill := range []bool{false, true} {
		src := &streamSource{g: grid.Test(), nm: 13, withFill: withFill}
		fields := src.materialize(0)
		par.SetWidth(1)
		want, err := Build(fields)
		if err != nil {
			t.Fatal(err)
		}
		par.SetWidth(3)
		got, err := BuildStream(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Members() != want.Members() || got.NPoints != want.NPoints {
			t.Fatal("shape mismatch")
		}
		eqF64(t, "RMSZ", want.RMSZ, got.RMSZ)
		eqF64(t, "Enmax", want.Enmax, got.Enmax)
		eqF64(t, "GlobalMean", want.GlobalMean, got.GlobalMean)
		eqF64(t, "ValidMean", want.ValidMean, got.ValidMean)
		eqF64(t, "RangePerMember", want.RangePerMember, got.RangePerMember)
		eqF64(t, "Mom.Sum", want.Mom.Sum, got.Mom.Sum)
		eqF64(t, "Mom.SumSq", want.Mom.SumSq, got.Mom.SumSq)
		for i := range want.FillMask {
			if want.FillMask[i] != got.FillMask[i] {
				t.Fatalf("FillMask[%d] differs", i)
			}
		}
		if sm, gm := want.SigmaMedian(), got.SigmaMedian(); math.Float64bits(sm) != math.Float64bits(gm) {
			t.Fatalf("SigmaMedian %v != %v", sm, gm)
		}
		if n := src.outstanding.Load(); n != 0 {
			t.Fatalf("%d fields leaked", n)
		}
	}
}

func TestBuildStreamResidencyBounded(t *testing.T) {
	par.SetWidth(2)
	defer par.SetWidth(0)
	src := &streamSource{g: grid.Test(), nm: 32}
	vs, err := BuildStream(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vs.Members() != 32 {
		t.Fatal("member count")
	}
	// Pass 1 holds one chunk (≤ width fields); pass 2 holds ≤ width
	// concurrently-scored fields. Leave headroom of one chunk for scheduling
	// overlap, but the bound must not scale with the 32 members.
	limit := int64(3*par.Width() + 1)
	if p := src.peak.Load(); p > limit {
		t.Fatalf("peak residency %d exceeds O(workers) bound %d", p, limit)
	}
	if n := src.outstanding.Load(); n != 0 {
		t.Fatalf("%d fields leaked", n)
	}
}

func TestAcquireOriginalStreamed(t *testing.T) {
	src := &streamSource{g: grid.Test(), nm: 5}
	vs, err := BuildStream(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := src.outstanding.Load()
	data, release := vs.AcquireOriginal(2)
	for i, v := range data {
		if v != src.value(3, 2, i) {
			t.Fatalf("regenerated member differs at %d", i)
		}
	}
	if src.outstanding.Load() != before+1 {
		t.Fatal("acquire not tracked")
	}
	release()
	if src.outstanding.Load() != before {
		t.Fatal("release not tracked")
	}

	// Stats built from caller-owned fields hand out the caller's slice, and
	// releasing it must leave the field alone.
	fields := src.materialize(3)
	mvs, err := Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	d2, rel2 := mvs.AcquireOriginal(2)
	if &d2[0] != &fields[2].Data[0] {
		t.Fatal("acquire on Build stats must alias the caller's field")
	}
	rel2()
	if fields[2].Data == nil {
		t.Fatal("release on Build stats released the caller's field")
	}
}

func TestRMSZScoresStreamMatchesSerial(t *testing.T) {
	src := &streamSource{g: grid.Test(), nm: 9, withFill: true}
	fields := src.materialize(1)
	members := make([][]float32, len(fields))
	for m, f := range fields {
		members[m] = f.Data
	}
	mask := make([]bool, len(members[0]))
	for i := range mask {
		mask[i] = members[0][i] == field.DefaultFill
	}

	// Serial reference: one moment pass in member order, then score.
	n := len(members[0])
	mo := stats.NewMoments(n)
	for _, data := range members {
		addMember(mo, data, mask, 0, n)
	}
	want := make([]float64, len(members))
	for m := range members {
		want[m] = referenceScoreRMSZ(mo, members[m], members[m], mask)
	}

	eqF64(t, "RMSZScoresChunked", want, wholeMemberScores(t, members, mask))

	// acquire runs on the worker pool, so the counter must be atomic.
	var acquires atomic.Int64
	got := referenceRMSZScoresStream(len(members), n, mask, func(m int) ([]float32, func()) {
		acquires.Add(1)
		return members[m], func() {}
	})
	eqF64(t, "RMSZScoresStream", want, got)
	if a := acquires.Load(); a < int64(2*len(members)) {
		t.Fatalf("expected two acquire passes, saw %d acquires", a)
	}
}
