package metrics

// GradientComparer evaluates how well a reconstruction preserves horizontal
// field gradients — the paper's §6 plan ("extend our verification metrics
// to evaluate the impact of compression ... on field gradients"). It
// compares the centered-difference gradient-magnitude fields of original and
// reconstruction with the standard §4.2 measures. Points adjacent to fill
// values inherit the fill sentinel, and the comparison runs under the union
// of both fields' fill marks.
//
// Reconstructed values arrive chunk by chunk, and only a 3-row ring of the
// reconstruction (the centered-difference halo) plus two gradient-row
// scratch buffers are held — never the two full gradient-magnitude fields.
// Rows are emitted into an inner Comparer in row-major order, so Finish is
// bit-identical to the whole-field reference loop kept in the tests.
type GradientComparer struct {
	orig             []float32
	levs, rows, cols int
	fill             float32
	hasFill          bool

	cmp    Comparer
	ring   []float32 // 3 rows of the reconstruction, indexed by row%3
	g1, g2 []float32 // gradient-row scratch: original, reconstruction
	total  int
	bad    bool
}

// NewGradientComparer prepares a streaming gradient comparison of a
// reconstruction against orig, a (levs, rows, cols) field. A mismatched
// orig length poisons the comparer, and Finish returns the NaN-filled
// Errors.
func NewGradientComparer(orig []float32, levs, rows, cols int, fill float32, hasFill bool) *GradientComparer {
	g := &GradientComparer{
		orig: orig, levs: levs, rows: rows, cols: cols,
		fill: fill, hasFill: hasFill,
	}
	if levs <= 0 || rows <= 0 || cols <= 0 || len(orig) != levs*rows*cols {
		g.bad = true
		return g
	}
	g.cmp.Reset(fill, hasFill)
	g.ring = make([]float32, 3*cols)
	g.g1 = make([]float32, cols)
	g.g2 = make([]float32, cols)
	return g
}

// Push accumulates one chunk of reconstructed values covering the points
// [off, off+len(vals)). Chunks must arrive in strictly increasing
// contiguous order, as DecodeChunks yields them.
func (g *GradientComparer) Push(vals []float32, off int) {
	if g.bad {
		return
	}
	if off != g.total || off+len(vals) > len(g.orig) {
		g.bad = true
		return
	}
	cols, perLev := g.cols, g.rows*g.cols
	for len(vals) > 0 {
		i := g.total
		lev, li := i/perLev, i%perLev
		r, c := li/cols, li%cols
		take := cols - c
		if take > len(vals) {
			take = len(vals)
		}
		copy(g.ring[(r%3)*cols+c:], vals[:take])
		vals = vals[take:]
		g.total += take
		if c+take == cols {
			g.rowDone(lev, r)
		}
	}
}

// rowDone fires when reconstruction row r of level lev is complete: the
// previous row then has its full halo, and the last row of a level can be
// emitted immediately (its lower neighbor clamps to itself).
func (g *GradientComparer) rowDone(lev, r int) {
	if g.rows == 1 {
		g.emit(lev, 0)
		return
	}
	if r >= 1 {
		g.emit(lev, r-1)
	}
	if r == g.rows-1 {
		g.emit(lev, r)
	}
}

// emit computes gradient row e of level lev for both fields, applies the
// mask union, and pushes the pair into the inner Comparer.
func (g *GradientComparer) emit(lev, e int) {
	cols := g.cols
	r0, r1 := e-1, e+1
	if r0 < 0 {
		r0 = e
	}
	if r1 >= g.rows {
		r1 = e
	}
	dyDen := r1 - r0 + boolInt(r1 == r0)
	base := lev * g.rows * cols
	row := func(r int) []float32 { return g.orig[base+r*cols : base+(r+1)*cols] }
	gradientRow(g.g1, row(r0), row(e), row(r1), cols, dyDen, g.fill, g.hasFill)
	rring := func(r int) []float32 { return g.ring[(r%3)*cols : (r%3+1)*cols] }
	gradientRow(g.g2, rring(r0), rring(e), rring(r1), cols, dyDen, g.fill, g.hasFill)
	if g.hasFill {
		// Compare under the union of both fill masks.
		gFill := g.fill
		for i := range g.g1 {
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			if g.g1[i] == gFill && g.g2[i] != gFill {
				g.g2[i] = gFill
			}
			//lint:floateq fill values are exact bit-pattern sentinels copied verbatim, never computed
			if g.g2[i] == gFill && g.g1[i] != gFill {
				g.g1[i] = gFill
			}
		}
	}
	g.cmp.Push(g.g1, g.g2, base+e*cols)
}

// Finish returns the §4.2 measures over the gradient fields.
func (g *GradientComparer) Finish() Errors {
	if g.bad || g.total != g.levs*g.rows*g.cols {
		return Compare(nil, nil, g.fill, g.hasFill) // NaN-filled
	}
	return g.cmp.Finish()
}
