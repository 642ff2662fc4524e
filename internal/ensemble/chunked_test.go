package ensemble

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"climcompress/internal/stats"
)

// chunkedEnsemble builds a deterministic synthetic ensemble with a fill
// mask and a zero-spread (constant-across-members) point.
func chunkedEnsemble(nm, n int) (members [][]float32, mask []bool) {
	rng := rand.New(rand.NewSource(41))
	members = make([][]float32, nm)
	for m := range members {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i)/5)) + rng.Float32()*0.1
		}
		data[3] = 42 // zero ensemble spread at point 3
		members[m] = data
	}
	mask = make([]bool, n)
	for i := 0; i < n; i += 7 {
		mask[i] = true
	}
	return members, mask
}

func pushChunks(data []float32, step int, push func(off int, vals []float32)) {
	for off := 0; off < len(data); off += step {
		end := off + step
		if end > len(data) {
			end = len(data)
		}
		push(off, data[off:end])
	}
}

// TestRMSZAccumulatorMatchesScore pins bit-identity of the chunked RMSZ
// reduction against the whole-field scoring loop, across chunk sizes.
func TestRMSZAccumulatorMatchesScore(t *testing.T) {
	members, mask := chunkedEnsemble(9, 100)
	n := len(members[0])
	mo := stats.NewMoments(n)
	for _, d := range members {
		addMember(mo, d, mask, 0, n)
	}
	recon := make([]float32, n)
	copy(recon, members[4])
	recon[11] += 0.05 // perturb so the score is nontrivial
	want := referenceScoreRMSZ(mo, members[4], recon, mask)
	for _, step := range []int{1, 13, 100, 1000} {
		var acc RMSZAccumulator
		acc.Reset(mo, mask)
		pushChunks(recon, step, func(off int, vals []float32) {
			acc.Push(members[4][off:off+len(vals)], vals, off)
		})
		got := acc.Finish(n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("step %d: chunked RMSZ %v != %v", step, got, want)
		}
	}
	// Poisoned accumulations return NaN like the whole-field length check.
	var acc RMSZAccumulator
	acc.Reset(mo, mask)
	acc.Push(recon[:10], recon[:10], 5) // out of order
	if !math.IsNaN(acc.Finish(n)) {
		t.Error("out-of-order push did not poison the accumulator")
	}
	acc.Reset(mo, mask)
	acc.Push(recon[:10], recon[:10], 0)
	if !math.IsNaN(acc.Finish(n)) { // short accumulation
		t.Error("short accumulation did not yield NaN")
	}
}

// TestMeanAccumulatorMatchesMaskedMean pins the chunked masked mean.
func TestMeanAccumulatorMatchesMaskedMean(t *testing.T) {
	members, mask := chunkedEnsemble(3, 57)
	data := members[0]
	for _, m := range [][]bool{mask, nil} {
		want := referenceMaskedMean(data, m)
		if got := MaskedMean(data, m); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("mask=%v: MaskedMean %v != %v", m != nil, got, want)
		}
		for _, step := range []int{1, 8, 57} {
			var acc MeanAccumulator
			acc.Reset(m)
			pushChunks(data, step, func(off int, vals []float32) { acc.Push(vals, off) })
			if got := acc.Finish(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("mask=%v step %d: %v != %v", m != nil, step, got, want)
			}
		}
	}
	var acc MeanAccumulator
	acc.Reset(nil)
	if !math.IsNaN(acc.Finish()) {
		t.Error("empty mean should be NaN")
	}
}

// TestRMSZScoresChunkedMatchesStream pins the fused bias-test scores
// against the member-by-member reference implementation.
func TestRMSZScoresChunkedMatchesStream(t *testing.T) {
	members, mask := chunkedEnsemble(7, 90)
	n := len(members[0])
	want := referenceRMSZScoresStream(len(members), n, mask, func(m int) ([]float32, func()) {
		return members[m], func() {}
	})
	for _, step := range []int{1, 17, 4096} {
		got, err := RMSZScoresChunked(len(members), n, mask, func(m int, yield func(off int, vals []float32) error) error {
			for off := 0; off < n; off += step {
				end := off + step
				if end > n {
					end = n
				}
				if err := yield(off, members[m][off:end]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: %d scores, want %d", step, len(got), len(want))
		}
		for m := range got {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Errorf("step %d member %d: %v != %v", step, m, got[m], want[m])
			}
		}
	}
}

// TestRMSZScoresChunkedErrors pins decode-error propagation and the
// short-member guard.
func TestRMSZScoresChunkedErrors(t *testing.T) {
	members, mask := chunkedEnsemble(4, 30)
	n := len(members[0])
	sentinel := errors.New("decode blew up")
	_, err := RMSZScoresChunked(len(members), n, mask, func(m int, yield func(off int, vals []float32) error) error {
		if m == 2 {
			return sentinel
		}
		return yield(0, members[m])
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("decode error not propagated: %v", err)
	}
	_, err = RMSZScoresChunked(len(members), n, mask, func(m int, yield func(off int, vals []float32) error) error {
		return yield(0, members[m][:n-1]) // short member
	})
	if err == nil {
		t.Error("short member not rejected")
	}
}
