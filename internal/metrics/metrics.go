// Package metrics implements the paper's §4.2 measures for comparing
// original and reconstructed datasets — maximum pointwise error, normalized
// maximum pointwise error (eq. 2), RMSE (eq. 3), NRMSE (eq. 4), PSNR, and
// the Pearson correlation coefficient (eq. 5) — plus the SSIM image-quality
// index the paper lists as future work (§6). All measures skip special
// (fill) values, as the paper prescribes.
package metrics

import (
	"math"
)

// Errors summarizes the §4.2 comparison of a reconstructed dataset with
// its original.
type Errors struct {
	EMax    float64 // max_i |x_i - x̃_i|
	ENMax   float64 // EMax / range(X)            (eq. 2)
	RMSE    float64 //                             (eq. 3)
	NRMSE   float64 // RMSE / range(X)             (eq. 4)
	PSNR    float64 // 20·log10(range/RMSE), dB
	Pearson float64 // correlation coefficient ρ   (eq. 5)
	Range   float64 // range(X) over valid points
	N       int     // valid (non-fill) points compared
}

// Compare computes all §4.2 measures between orig and recon. Points whose
// original value equals fill are excluded when hasFill is set. A fill
// point that is not reconstructed as fill counts as an infinite error.
// It is the streaming Comparer fed the whole field as one chunk.
func Compare(orig, recon []float32, fill float32, hasFill bool) Errors {
	var c Comparer
	c.Reset(fill, hasFill)
	c.Push(orig, recon, 0)
	return c.Finish()
}

// CorrelationThreshold is the acceptance threshold for ρ used throughout
// the paper (recommended by the APAX profiler).
const CorrelationThreshold = 0.99999

// PassesCorrelation reports whether ρ meets the paper's acceptance
// threshold.
func (e Errors) PassesCorrelation() bool {
	return !math.IsNaN(e.Pearson) && e.Pearson >= CorrelationThreshold
}

// SSIM computes the mean structural similarity index over non-overlapping
// win×win windows of a rows×cols slab (Wang et al. 2004), the §6 extension
// for assessing visualization quality. The dynamic range L is taken from
// the original slab; windows containing fill values are skipped. Returns
// NaN if no window is valid.
func SSIM(orig, recon []float32, rows, cols, win int, fill float32, hasFill bool) float64 {
	if len(orig) != len(recon) || len(orig) != rows*cols || win < 2 {
		return math.NaN()
	}
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range orig {
		//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
		if hasFill && v == fill {
			continue
		}
		x := float64(v)
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	l := hi - lo
	if l <= 0 || math.IsInf(l, 0) {
		return math.NaN()
	}
	c1 := (0.01 * l) * (0.01 * l)
	c2 := (0.03 * l) * (0.03 * l)

	var total float64
	var count int
	for r0 := 0; r0+win <= rows; r0 += win {
		for c0 := 0; c0+win <= cols; c0 += win {
			var sx, sy, sxx, syy, sxy float64
			n := 0
			skip := false
			for r := r0; r < r0+win && !skip; r++ {
				for c := c0; c < c0+win; c++ {
					i := r*cols + c
					//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
					if hasFill && (orig[i] == fill || recon[i] == fill) {
						skip = true
						break
					}
					x, y := float64(orig[i]), float64(recon[i])
					sx += x
					sy += y
					sxx += x * x
					syy += y * y
					sxy += x * y
					n++
				}
			}
			if skip || n < 4 {
				continue
			}
			fn := float64(n)
			mx, my := sx/fn, sy/fn
			vx := sxx/fn - mx*mx
			vy := syy/fn - my*my
			cov := sxy/fn - mx*my
			s := ((2*mx*my + c1) * (2*cov + c2)) /
				((mx*mx + my*my + c1) * (vx + vy + c2))
			total += s
			count++
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return total / float64(count)
}
