package ensemble

import (
	"runtime"
	"sync"
	"testing"

	"climcompress/internal/field"
	"climcompress/internal/grid"
	"climcompress/internal/par"
)

// TestReleaseFieldsDoubleReleaseSafe: releasing a field twice must be a
// no-op the second time — in particular it must not insert the same buffer
// into the scratch pool twice, which would hand one slice to two concurrent
// consumers. The pattern-stamping consumers below (plus the race detector)
// catch any such aliasing.
func TestReleaseFieldsDoubleReleaseSafe(t *testing.T) {
	g := grid.Test()
	fields := make([]*field.Field, 8)
	for i := range fields {
		fields[i] = field.New("X", "1", g, false)
		for j := range fields[i].Data {
			fields[i].Data[j] = float32(i)
		}
	}
	n := fields[0].Len()
	for _, f := range fields {
		f.Release()
		f.Release() // must be a no-op: Data is already nil
	}
	for _, f := range fields {
		if f.Data != nil {
			t.Fatal("Release left Data non-nil")
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(tag float32) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				b := par.GetFloats(n)
				for j := range b {
					b[j] = tag
				}
				runtime.Gosched()
				for j := range b {
					if b[j] != tag {
						t.Errorf("buffer shared between consumers: got %v, want %v", b[j], tag)
						return
					}
				}
				par.PutFloats(b)
			}
		}(float32(w + 1))
	}
	wg.Wait()
}

// TestScratchPoolSizeMismatch: recycling buffers of one size must never
// surface stale lengths or stale contents at another size.
func TestScratchPoolSizeMismatch(t *testing.T) {
	small := par.GetFloats(64)
	for i := range small {
		small[i] = 7
	}
	par.PutFloats(small)

	big := par.GetFloats(1 << 14)
	if len(big) != 1<<14 {
		t.Fatalf("len = %d, want %d", len(big), 1<<14)
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("grown buffer not zeroed at %d: %v", i, v)
		}
	}
	for i := range big {
		big[i] = 9
	}
	par.PutFloats(big)

	shrunk := par.GetFloats(100)
	if len(shrunk) != 100 {
		t.Fatalf("len = %d, want 100", len(shrunk))
	}
	for i, v := range shrunk {
		if v != 0 {
			t.Fatalf("shrunk buffer not zeroed at %d: %v", i, v)
		}
	}
	par.PutFloats(shrunk)
}

// TestStreamedBuildUnderPoolChurn runs a streamed build while other
// goroutines hammer the scratch pool with mismatched sizes and while the
// same field set is double-released, then checks the statistics still match
// a serial reference bit-for-bit. This is the "size-mismatch reuse must not
// corrupt concurrent experiments" contract.
func TestStreamedBuildUnderPoolChurn(t *testing.T) {
	src := &streamSource{g: grid.Test(), nm: 11}
	ref := src.materialize(0)
	want, err := Build(ref)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{1, 63, 1024, 40000}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := par.GetFloats(sizes[(i+w)%len(sizes)])
				for j := range b {
					b[j] = float32(w)
				}
				par.PutFloats(b)
				junk := field.New("J", "1", grid.Test(), false)
				junk.Release()
				junk.Release()
			}
		}(w)
	}

	got, err := BuildStream(src, 0)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	eqF64(t, "RMSZ", got.RMSZ, want.RMSZ)
	eqF64(t, "Enmax", got.Enmax, want.Enmax)
	eqF64(t, "GlobalMean", got.GlobalMean, want.GlobalMean)
	eqF64(t, "ValidMean", got.ValidMean, want.ValidMean)
	if n := src.outstanding.Load(); n != 0 {
		t.Fatalf("%d fields leaked", n)
	}
}
