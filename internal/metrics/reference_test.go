package metrics

import (
	"math"
)

// This file keeps the original whole-field loops of the §4.2 and gradient
// comparisons. Production code runs only the streaming Comparer and
// GradientComparer; these loops are the independent bit-identity references
// that TestFusedEquivalence and TestCompareAllFillNaN compare them against.

// referenceCompare computes all §4.2 measures between orig and recon.
// Points whose original value equals fill are excluded when hasFill is set.
// A fill point that is not reconstructed as fill counts as an infinite
// error.
func referenceCompare(orig, recon []float32, fill float32, hasFill bool) Errors {
	var e Errors
	if len(orig) != len(recon) || len(orig) == 0 {
		nan := math.NaN()
		return Errors{EMax: nan, ENMax: nan, RMSE: nan, NRMSE: nan, PSNR: nan, Pearson: nan, Range: nan}
	}
	var (
		minX, maxX   = math.Inf(1), math.Inf(-1)
		sumX, sumY   float64
		sumXX, sumYY float64
		sumXY        float64
		sumSq        float64
		identical    = true
	)
	for i := range orig {
		//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
		if hasFill && orig[i] == fill {
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			if recon[i] != fill {
				e.EMax = math.Inf(1)
			}
			continue
		}
		x := float64(orig[i])
		y := float64(recon[i])
		d := x - y
		if ad := math.Abs(d); ad > e.EMax {
			e.EMax = ad
		}
		sumSq += d * d
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		sumX += x
		sumY += y
		sumXX += x * x
		sumYY += y * y
		sumXY += x * y
		//lint:floateq intentional exact comparison: detects bit-identical reconstruction, where correlation is defined as 1
		if x != y {
			identical = false
		}
		e.N++
	}
	if e.N == 0 {
		nan := math.NaN()
		return Errors{EMax: nan, ENMax: nan, RMSE: nan, NRMSE: nan, PSNR: nan, Pearson: nan, Range: nan}
	}
	n := float64(e.N)
	e.Range = maxX - minX
	e.RMSE = math.Sqrt(sumSq / n)
	if e.Range > 0 {
		e.ENMax = e.EMax / e.Range
		e.NRMSE = e.RMSE / e.Range
		if e.RMSE > 0 {
			e.PSNR = 20 * math.Log10(e.Range/e.RMSE)
		} else {
			e.PSNR = math.Inf(1)
		}
	} else {
		// Constant field: normalized measures are 0 when exact, +Inf when
		// any error exists.
		if e.EMax == 0 {
			e.ENMax, e.NRMSE = 0, 0
			e.PSNR = math.Inf(1)
		} else {
			e.ENMax, e.NRMSE = math.Inf(1), math.Inf(1)
			e.PSNR = 0
		}
	}
	// Pearson ρ (eq. 5) from the accumulated moments.
	vx := sumXX - sumX*sumX/n
	vy := sumYY - sumY*sumY/n
	cov := sumXY - sumX*sumY/n
	switch {
	case identical:
		e.Pearson = 1
	case vx <= 0 || vy <= 0:
		e.Pearson = math.NaN()
	default:
		e.Pearson = cov / math.Sqrt(vx*vy)
	}
	return e
}

// gradientMagnitude computes the centered-difference horizontal gradient
// magnitude of each rows×cols slab of a (levs, rows, cols) field. One-sided
// differences are used at the edges; points adjacent to fill values inherit
// the fill sentinel.
func gradientMagnitude(data []float32, levs, rows, cols int, fill float32, hasFill bool) []float32 {
	out := make([]float32, len(data))
	for lev := 0; lev < levs; lev++ {
		base := lev * rows * cols
		for r := 0; r < rows; r++ {
			r0, r1 := r-1, r+1
			if r0 < 0 {
				r0 = r
			}
			if r1 >= rows {
				r1 = r
			}
			cur := data[base+r*cols : base+(r+1)*cols]
			prev := data[base+r0*cols : base+(r0+1)*cols]
			next := data[base+r1*cols : base+(r1+1)*cols]
			dst := out[base+r*cols : base+(r+1)*cols]
			gradientRow(dst, prev, cur, next, cols, r1-r0+boolInt(r1 == r0), fill, hasFill)
		}
	}
	return out
}

// referenceGradientCompare evaluates how well a reconstruction preserves
// horizontal field gradients — the paper's §6 plan ("extend our verification metrics
// to evaluate the impact of compression ... on field gradients"). It
// compares the gradient-magnitude fields of original and reconstruction
// with the standard §4.2 measures.
func referenceGradientCompare(orig, recon []float32, levs, rows, cols int, fill float32, hasFill bool) Errors {
	if len(orig) != len(recon) || len(orig) != levs*rows*cols {
		return referenceCompare(nil, nil, fill, hasFill) // NaN-filled
	}
	gFill := fill
	go1 := gradientMagnitude(orig, levs, rows, cols, fill, hasFill)
	go2 := gradientMagnitude(recon, levs, rows, cols, fill, hasFill)
	// Gradient fields mark edge-of-mask points as fill; compare with the
	// union of both masks by copying orig's fill marks into recon's field.
	if hasFill {
		for i := range go1 {
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			if go1[i] == gFill && go2[i] != gFill {
				go2[i] = gFill
			}
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			if go2[i] == gFill && go1[i] != gFill {
				go1[i] = gFill
			}
		}
	}
	return referenceCompare(go1, go2, gFill, hasFill)
}
