package metrics

import (
	"math"
)

// Comparer is the §4.2 comparison kernel: the fused verification path
// pushes reconstructed values chunk by chunk as they decode, and Finish
// folds the accumulated moments into Errors. Compare is one whole-field
// Push. Accumulation order is the point index order whatever the chunking,
// so the result does not depend on chunk sizes — the golden equivalence
// test pins it against a whole-field reference loop.
//
// Chunks must arrive in strictly increasing contiguous index order (Push
// with off equal to the count of points pushed so far); out-of-order or
// mismatched pushes poison the Comparer and Finish returns the NaN-filled
// Errors. So does a comparison with no valid (non-fill) points.
type Comparer struct {
	fill    float32
	hasFill bool

	emax         float64
	minX, maxX   float64
	sumX, sumY   float64
	sumXX, sumYY float64
	sumXY        float64
	sumSq        float64
	identical    bool
	n            int
	total        int
	bad          bool
}

// Reset prepares the Comparer for a new comparison with the given fill
// sentinel.
func (c *Comparer) Reset(fill float32, hasFill bool) {
	*c = Comparer{
		fill:    fill,
		hasFill: hasFill,
		minX:    math.Inf(1),
		maxX:    math.Inf(-1),

		identical: true,
	}
}

// Push accumulates one chunk: orig and recon hold the original and
// reconstructed values of points [off, off+len(orig)).
func (c *Comparer) Push(orig, recon []float32, off int) {
	if len(orig) != len(recon) || off != c.total {
		c.bad = true
		return
	}
	c.total += len(orig)
	fill, hasFill := c.fill, c.hasFill
	emax := c.emax
	minX, maxX := c.minX, c.maxX
	sumX, sumY := c.sumX, c.sumY
	sumXX, sumYY := c.sumXX, c.sumYY
	sumXY, sumSq := c.sumXY, c.sumSq
	identical := c.identical
	n := c.n
	for i := range orig {
		//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
		if hasFill && orig[i] == fill {
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			if recon[i] != fill {
				emax = math.Inf(1)
			}
			continue
		}
		x := float64(orig[i])
		y := float64(recon[i])
		d := x - y
		if ad := math.Abs(d); ad > emax {
			emax = ad
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
		n++
	}
	c.emax = emax
	c.minX, c.maxX = minX, maxX
	c.sumX, c.sumY = sumX, sumY
	c.sumXX, c.sumYY = sumXX, sumYY
	c.sumXY, c.sumSq = sumXY, sumSq
	c.identical = identical
	c.n = n
}

// Total returns the number of points pushed so far.
func (c *Comparer) Total() int { return c.total }

// Finish folds the accumulated moments into Errors.
func (c *Comparer) Finish() Errors {
	if c.bad || c.total == 0 || c.n == 0 {
		nan := math.NaN()
		return Errors{EMax: nan, ENMax: nan, RMSE: nan, NRMSE: nan, PSNR: nan, Pearson: nan, Range: nan}
	}
	var e Errors
	e.EMax = c.emax
	e.N = c.n
	n := float64(c.n)
	e.Range = c.maxX - c.minX
	e.RMSE = math.Sqrt(c.sumSq / n)
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
	vx := c.sumXX - c.sumX*c.sumX/n
	vy := c.sumYY - c.sumY*c.sumY/n
	cov := c.sumXY - c.sumX*c.sumY/n
	switch {
	case c.identical:
		e.Pearson = 1
	case vx <= 0 || vy <= 0:
		e.Pearson = math.NaN()
	default:
		e.Pearson = cov / math.Sqrt(vx*vy)
	}
	return e
}
