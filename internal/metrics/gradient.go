package metrics

import (
	"math"
)

// gradientRow computes one output row of the centered-difference gradient
// magnitude: cur is the row being differentiated, prev/next its clamped
// vertical neighbors (aliases of cur at the slab edges), and dyDen the
// vertical denominator (2 in the interior, 1 at edges and single-row
// slabs). GradientComparer runs every row through it.
func gradientRow(dst, prev, cur, next []float32, cols, dyDen int, fill float32, hasFill bool) {
	for c := 0; c < cols; c++ {
		v := cur[c]
		//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
		if hasFill && v == fill {
			dst[c] = fill
			continue
		}
		// d/dx along the row.
		c0, c1 := c-1, c+1
		if c0 < 0 {
			c0 = c
		}
		if c1 >= cols {
			c1 = c
		}
		x0, x1 := cur[c0], cur[c1]
		// d/dy along the column.
		y0, y1 := prev[c], next[c]
		//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
		if hasFill && (x0 == fill || x1 == fill || y0 == fill || y1 == fill) {
			dst[c] = fill
			continue
		}
		dx := float64(x1-x0) / float64(c1-c0+boolInt(c1 == c0))
		dy := float64(y1-y0) / float64(dyDen)
		dst[c] = float32(math.Sqrt(dx*dx + dy*dy))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
