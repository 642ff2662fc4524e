package metrics

import (
	"math"
	"testing"
)

func TestGradientMagnitudeLinearRamp(t *testing.T) {
	// f(r,c) = 3c: gradient magnitude 3 everywhere.
	rows, cols := 8, 8
	data := make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			data[r*cols+c] = float32(3 * c)
		}
	}
	g := gradientMagnitude(data, 1, rows, cols, 0, false)
	for i, v := range g {
		if math.Abs(float64(v)-3) > 1e-6 {
			t.Fatalf("gradient at %d = %v, want 3", i, v)
		}
	}
}

func TestGradientMagnitudeDiagonal(t *testing.T) {
	// f(r,c) = r + c: |∇f| = sqrt(2).
	rows, cols := 10, 12
	data := make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			data[r*cols+c] = float32(r + c)
		}
	}
	g := gradientMagnitude(data, 1, rows, cols, 0, false)
	want := math.Sqrt2
	for i, v := range g {
		if math.Abs(float64(v)-want) > 1e-6 {
			t.Fatalf("gradient at %d = %v, want %v", i, v, want)
		}
	}
}

func TestGradientMagnitudeConstant(t *testing.T) {
	data := make([]float32, 36)
	for i := range data {
		data[i] = 7
	}
	g := gradientMagnitude(data, 1, 6, 6, 0, false)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("constant field gradient at %d = %v", i, v)
		}
	}
}

func TestGradientFillPropagation(t *testing.T) {
	const fill = float32(1e35)
	rows, cols := 6, 6
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = float32(i)
	}
	data[2*cols+2] = fill
	g := gradientMagnitude(data, 1, rows, cols, fill, true)
	// The fill point itself and its 4-neighbors become fill.
	for _, idx := range []int{2*cols + 2, 1*cols + 2, 3*cols + 2, 2*cols + 1, 2*cols + 3} {
		if g[idx] != fill {
			t.Fatalf("fill did not propagate to %d: %v", idx, g[idx])
		}
	}
	// Far corners remain valid.
	if g[0] == fill || g[rows*cols-1] == fill {
		t.Fatal("fill over-propagated")
	}
}

// gradientCompare runs the streaming GradientComparer over recon pushed as
// one whole-field chunk.
func gradientCompare(orig, recon []float32, levs, rows, cols int, fill float32, hasFill bool) Errors {
	g := NewGradientComparer(orig, levs, rows, cols, fill, hasFill)
	g.Push(recon, 0)
	return g.Finish()
}

func TestGradientCompareIdentical(t *testing.T) {
	rows, cols := 16, 16
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 9))
	}
	e := gradientCompare(data, data, 1, rows, cols, 0, false)
	if e.EMax != 0 || e.Pearson != 1 {
		t.Fatalf("identical gradients should be exact: %+v", e)
	}
}

func TestGradientCompareSensitiveToHighFreqNoise(t *testing.T) {
	// Pointwise-small high-frequency noise perturbs gradients much more
	// (relatively) than the values themselves — the reason the paper wants
	// this metric.
	rows, cols := 32, 32
	orig := make([]float32, rows*cols)
	recon := make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			orig[i] = float32(100 * math.Sin(float64(c)/10))
			// Alternating-sign perturbation: tiny value error, large
			// gradient error.
			recon[i] = orig[i] + float32(0.5*float64(1-2*((r+c)%2)))
		}
	}
	val := Compare(orig, recon, 0, false)
	grad := gradientCompare(orig, recon, 1, rows, cols, 0, false)
	if grad.NRMSE <= val.NRMSE*5 {
		t.Fatalf("gradient NRMSE %v should dwarf value NRMSE %v for alternating noise",
			grad.NRMSE, val.NRMSE)
	}
}

func TestGradientCompareMismatched(t *testing.T) {
	e := gradientCompare(make([]float32, 4), make([]float32, 9), 1, 3, 3, 0, false)
	if !math.IsNaN(e.RMSE) {
		t.Fatal("mismatched sizes should yield NaN")
	}
}
