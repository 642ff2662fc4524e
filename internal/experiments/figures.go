package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"climcompress/internal/compress"
	"climcompress/internal/ensemble"
	"climcompress/internal/metrics"
	"climcompress/internal/pvt"
	"climcompress/internal/report"
	"climcompress/internal/stats"
	"climcompress/internal/varcatalog"
)

// Fig1 reproduces Figure 1: box plots over all catalog variables of (a)
// the normalized maximum pointwise error and (b) the NRMSE, one box per
// study variant. Lossless reconstructions contribute the log-scale floor.
func (r *Runner) Fig1() (string, error) {
	names := make([]string, len(r.Catalog))
	for i, s := range r.Catalog {
		names[i] = s.Name
	}
	matrix, err := r.ErrorMatrix(names)
	if err != nil {
		return "", err
	}
	variantLabels := make([]string, 0, len(Variants()))
	var enmaxBoxes, nrmseBoxes []stats.Boxplot
	const floor = 1e-12 // log-scale floor for exact reconstructions
	for _, variant := range Variants() {
		var enmax, nrmse []float64
		for _, name := range names {
			e := matrix[name][variant].Errors
			if !math.IsNaN(e.ENMax) && !math.IsInf(e.ENMax, 0) {
				enmax = append(enmax, math.Max(e.ENMax, floor))
			}
			if !math.IsNaN(e.NRMSE) && !math.IsInf(e.NRMSE, 0) {
				nrmse = append(nrmse, math.Max(e.NRMSE, floor))
			}
		}
		variantLabels = append(variantLabels, Label(variant))
		enmaxBoxes = append(enmaxBoxes, stats.NewBoxplot(enmax))
		nrmseBoxes = append(nrmseBoxes, stats.NewBoxplot(nrmse))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: error distributions over all %d variable datasets (grid %s).\n\n",
		len(names), r.Cfg.Grid.Name)
	b.WriteString(report.BoxplotChart("(a) Normalized maximum pointwise error (log scale)",
		variantLabels, enmaxBoxes, true, 18))
	b.WriteByte('\n')
	b.WriteString(report.BoxplotChart("(b) Normalized RMSE (log scale)",
		variantLabels, nrmseBoxes, true, 18))
	return b.String(), nil
}

// featuredReconstructions compresses the test members of one featured
// variable with every variant and returns per-variant reconstructed RMSZ
// values and e_nmax values.
type featuredRecon struct {
	vs        *ensemble.VarStats
	testM     []int
	rmszRecon map[string][]float64 // variant -> per-test-member recon RMSZ
	enmax     map[string][]float64 // variant -> per-test-member e_nmax
}

func (r *Runner) featuredRecon(name string) (*featuredRecon, error) {
	vs, err := r.VarStatsFor(name)
	if err != nil {
		return nil, err
	}
	idx, err := r.varIndex(name)
	if err != nil {
		return nil, err
	}
	spec := r.Catalog[idx]
	shape := r.shapeFor(spec)
	testM := pvt.SelectTestMembers(vs.Members(), 3, r.Cfg.Seed)
	fr := &featuredRecon{
		vs:        vs,
		testM:     testM,
		rmszRecon: make(map[string][]float64),
		enmax:     make(map[string][]float64),
	}
	var mu sync.Mutex
	variants := Variants()
	indices := make([]int, len(variants))
	for i := range indices {
		indices[i] = i
	}
	err = r.forEachVar(indices, func(vi int) error {
		variant := variants[vi]
		codec, err := r.CodecFor(variant, spec, vs, 0)
		if err != nil {
			return err
		}
		// Fused: each test member's reconstruction decodes chunk by chunk
		// into the streaming RMSZ and error accumulators (the excluded
		// member of the RMSZ score is the acquired original, as before), so
		// no reconstructed field is materialized on natively chunked
		// variants.
		var rz, en []float64
		var buf []byte
		var cmp metrics.Comparer
		var rzAcc ensemble.RMSZAccumulator
		for _, m := range testM {
			data, release := vs.AcquireOriginal(m)
			cmp.Reset(vs.Fill, vs.HasFill)
			rzAcc.Reset(vs.Mom, vs.FillMask)
			withStage("decode", func() {
				buf, err = compress.CompressInto(codec, buf[:0], data, shape)
				if err != nil {
					return
				}
				// Empty chunk: see computeErrorVariable.
				err = compress.DecodeChunks(codec, buf, nil, func(off int, vals []float32) error {
					if off+len(vals) > len(data) {
						return fmt.Errorf("%w: chunk [%d,%d) outside field of %d points", compress.ErrCorrupt, off, off+len(vals), len(data))
					}
					orig := data[off : off+len(vals)]
					cmp.Push(orig, vals, off)
					rzAcc.Push(orig, vals, off)
					return nil
				})
			})
			release()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, variant, err)
			}
			withStage("metrics", func() {
				rz = append(rz, rzAcc.Finish(vs.NPoints))
				en = append(en, cmp.Finish().ENMax)
			})
		}
		mu.Lock()
		fr.rmszRecon[variant] = rz
		fr.enmax[variant] = en
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fr, nil
}

// Fig2 reproduces Figure 2: for each featured variable, the histogram of
// the ensemble's RMSZ scores with markers for the reconstructed test
// members of each variant (the original member's score marked "O").
func (r *Runner) Fig2() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: RMSZ-ensemble test for U, Z3, FSDSC, CCN3 (grid %s, %d members).\n",
		r.Cfg.Grid.Name, r.Cfg.Members)
	b.WriteString("Markers: O = original member score; each variant's symbol marks its reconstructed score.\n\n")
	symbols := map[string]string{
		"grib2": "G", "apax-2": "a2", "apax-4": "a4", "apax-5": "a5",
		"fpzip-24": "f24", "fpzip-16": "f16",
		"isa-0.1": "i.1", "isa-0.5": "i.5", "isa-1": "i1",
	}
	for _, name := range []string{"U", "Z3", "FSDSC", "CCN3"} {
		fr, err := r.featuredRecon(name)
		if err != nil {
			return "", err
		}
		hist := stats.NewHistogram(fr.vs.RMSZ, 15)
		markers := map[string]string{}
		vals := map[string]float64{}
		m0 := fr.testM[0]
		markers["orig"] = "O"
		vals["orig"] = fr.vs.RMSZ[m0]
		for variant, rz := range fr.rmszRecon {
			markers[variant] = symbols[variant]
			vals[variant] = rz[0]
		}
		b.WriteString(report.HistogramChart(
			fmt.Sprintf("RMSZ-Ensemble test: %s (member %d marked)", name, m0),
			hist, markers, vals, 40))
		// Numeric detail: original vs reconstructed RMSZ for each variant.
		t := &report.Table{Headers: []string{"Method", "RMSZ orig", "RMSZ recon", "|diff|"}}
		for _, variant := range Variants() {
			rz := fr.rmszRecon[variant][0]
			t.AddRow(Label(variant), report.Fix(fr.vs.RMSZ[m0], 4), report.Fix(rz, 4),
				report.Sci(math.Abs(rz-fr.vs.RMSZ[m0])))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Fig3 reproduces Figure 3: for each featured variable, the ensemble's
// E_nmax distribution (eq. 10) as the leftmost box and each variant's
// original-vs-reconstruction e_nmax values beside it.
func (r *Runner) Fig3() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: E_nmax ensemble test for U, Z3, FSDSC, CCN3 (grid %s, %d members).\n\n",
		r.Cfg.Grid.Name, r.Cfg.Members)
	for _, name := range []string{"U", "Z3", "FSDSC", "CCN3"} {
		fr, err := r.featuredRecon(name)
		if err != nil {
			return "", err
		}
		labels := []string{"ensemble"}
		boxes := []stats.Boxplot{stats.NewBoxplot(fr.vs.Enmax)}
		const floor = 1e-12
		for _, variant := range Variants() {
			vals := make([]float64, 0, len(fr.enmax[variant]))
			for _, v := range fr.enmax[variant] {
				if !math.IsNaN(v) {
					vals = append(vals, math.Max(v, floor))
				}
			}
			labels = append(labels, Label(variant))
			boxes = append(boxes, stats.NewBoxplot(vals))
		}
		b.WriteString(report.BoxplotChart(
			fmt.Sprintf("E_nmax: %s (leftmost box = ensemble distribution, log scale)", name),
			labels, boxes, true, 16))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// Fig4 reproduces Figure 4: the bias test. For each featured variable and
// each variant, the whole ensemble is reconstructed, the reconstructed
// RMSZ scores are regressed on the originals, and the 95% confidence
// rectangle for (slope, intercept) is reported with the eq. 9 verdict.
func (r *Runner) Fig4() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: bias test — RMSZ(reconstructed) regressed on RMSZ(original) (grid %s, %d members).\n",
		r.Cfg.Grid.Name, r.Cfg.Members)
	fmt.Fprintf(&b, "Pass requires |s_I - s_WC| <= %.2f (eq. 9); 'ideal in box' reports whether the 95%% rectangle contains (1, 0).\n\n",
		r.Cfg.Thr.SlopeDistance)
	for _, name := range []string{"U", "Z3", "FSDSC", "CCN3"} {
		vs, err := r.VarStatsFor(name)
		if err != nil {
			return "", err
		}
		idx, err := r.varIndex(name)
		if err != nil {
			return "", err
		}
		spec := r.Catalog[idx]
		verifier := &pvt.Verifier{
			Stats: vs, Shape: r.shapeFor(spec), Thr: r.Cfg.Thr,
			TestMembers: pvt.SelectTestMembers(vs.Members(), 3, r.Cfg.Seed),
			WithBias:    true, Workers: r.workers(),
		}
		t := &report.Table{
			Title: fmt.Sprintf("Bias: %s", name),
			Headers: []string{"Method", "slope", "slope 95% CI", "intercept", "intercept 95% CI",
				"|s_I-s_WC|", "ideal in box", "pass"},
		}
		var rects []report.Rect
		for _, variant := range Variants() {
			codec, err := r.CodecFor(variant, spec, vs, 0)
			if err != nil {
				return "", err
			}
			res, err := verifier.Verify(codec)
			if err != nil {
				return "", err
			}
			reg := res.Bias
			t.AddRow(Label(variant),
				report.Fix(reg.Slope, 5),
				fmt.Sprintf("[%s, %s]", report.Fix(reg.SlopeCI95[0], 5), report.Fix(reg.SlopeCI95[1], 5)),
				report.Sci(reg.Intercept),
				fmt.Sprintf("[%s, %s]", report.Sci(reg.InterceptCI95[0]), report.Sci(reg.InterceptCI95[1])),
				report.Fix(reg.SlopeWorstCaseDistance(), 4),
				yesNo(reg.ContainsIdeal()), yesNo(res.BiasPass))
			if !math.IsNaN(reg.Slope) {
				rects = append(rects, report.Rect{
					Label: Label(variant),
					X0:    reg.SlopeCI95[0], X1: reg.SlopeCI95[1],
					Y0: reg.InterceptCI95[0], Y1: reg.InterceptCI95[1],
				})
			}
		}
		b.WriteString(t.String())
		b.WriteString(report.ScatterRects(
			fmt.Sprintf("slope (x) vs intercept (y) 95%% confidence rectangles, '+' = ideal (1, 0): %s", name),
			rects, 1, 0, 72, 18))
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// SSIMReport implements the paper's §6 extension: the structural similarity
// of reconstructed 2-D slices (the surface level for 3-D variables), per
// variant, for the featured variables.
func (r *Runner) SSIMReport() (string, error) {
	g := r.Cfg.Grid
	t := &report.Table{
		Title: fmt.Sprintf("SSIM of reconstructed fields (surface level, 8x8 windows, grid %s) — §6 extension.",
			g.Name),
		Headers: append([]string{"Method"}, varcatalog.Featured()...),
	}
	cells := make(map[string]map[string]string)
	for _, name := range varcatalog.Featured() {
		idx, err := r.varIndex(name)
		if err != nil {
			return "", err
		}
		spec := r.Catalog[idx]
		f := r.memberField(idx, 0)
		shape := r.shapeFor(spec)
		// Surface (last) level slab.
		slab := f.Data[(shape.NLev-1)*g.NLat*g.NLon:]
		var buf []byte
		var recon []float32
		for _, variant := range Variants() {
			codec, err := r.CodecFor(variant, spec, nil, f.Summarize().Range)
			if err != nil {
				f.Release()
				return "", err
			}
			buf, err = compress.CompressInto(codec, buf[:0], f.Data, shape)
			if err != nil {
				f.Release()
				return "", err
			}
			recon, err = compress.DecompressInto(codec, recon, buf)
			if err != nil {
				f.Release()
				return "", err
			}
			rslab := recon[(shape.NLev-1)*g.NLat*g.NLon:]
			s := metrics.SSIM(slab, rslab, g.NLat, g.NLon, 8, f.Fill, f.HasFill)
			if cells[variant] == nil {
				cells[variant] = make(map[string]string)
			}
			cells[variant][name] = report.Fix(s, 6)
		}
		f.Release()
	}
	for _, variant := range Variants() {
		row := []string{Label(variant)}
		for _, name := range varcatalog.Featured() {
			row = append(row, cells[variant][name])
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}
