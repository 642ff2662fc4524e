package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"climcompress/internal/compress"
	"climcompress/internal/ensemble"
	"climcompress/internal/hybrid"
	"climcompress/internal/metrics"
	"climcompress/internal/pvt"
	"climcompress/internal/report"
	"climcompress/internal/varcatalog"
)

// Table1 renders the paper's Table 1: algorithm properties. These are
// properties of the original software packages as reported by the paper;
// the Go reimplementations mirror the behavioural ones (lossless mode,
// special values, fixed quality/CR).
func Table1() string {
	t := &report.Table{
		Title: "Table 1: Algorithm properties.",
		Headers: []string{"Method", "lossless mode", "special values",
			"freely avail.", "fixed quality", "fixed CR", "32- & 64-bit"},
	}
	rows := []compress.Properties{
		{Method: "GRIB2 + jpeg2000", LosslessMode: false, SpecialValues: true, FreelyAvail: true,
			FixedQuality: false, FixedRate: false, Bits32And64: false},
		{Method: "APAX", LosslessMode: true, SpecialValues: false, FreelyAvail: false,
			FixedQuality: true, FixedRate: true, Bits32And64: true},
		{Method: "fpzip", LosslessMode: true, SpecialValues: false, FreelyAvail: true,
			FixedQuality: false, FixedRate: false, Bits32And64: true},
		{Method: "ISABELA", LosslessMode: false, SpecialValues: false, FreelyAvail: true,
			FixedQuality: false, FixedRate: false, Bits32And64: true},
	}
	yn := func(b bool) string {
		if b {
			return "Y"
		}
		return "N"
	}
	for _, p := range rows {
		t.AddRow(p.Method, yn(p.LosslessMode), yn(p.SpecialValues), yn(p.FreelyAvail),
			yn(p.FixedQuality), yn(p.FixedRate), yn(p.Bits32And64))
	}
	return t.String() + "(APAX lossless mode is not supported for 64-bit data.)\n"
}

// Table2 renders the §4.1 characteristics of the four featured variables:
// extremes, mean, standard deviation, and the lossless NetCDF-4 CR.
func (r *Runner) Table2() (string, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Table 2: Characteristics of U, FSDSC, Z3, CCN3 (grid %s, member 0).", r.Cfg.Grid.Name),
		Headers: []string{"Variable", "units", "x_min", "x_max", "mean", "std", "CR"},
	}
	nc, err := compress.New("nc")
	if err != nil {
		return "", err
	}
	for _, name := range varcatalog.Featured() {
		idx, err := r.varIndex(name)
		if err != nil {
			return "", err
		}
		spec := r.Catalog[idx]
		f := r.memberField(idx, 0)
		s := f.Summarize()
		codec := nc
		if spec.HasFill {
			codec = compress.WithFill(nc, f.Fill)
		}
		buf, err := compress.CompressInto(codec, compress.GetBytes(f.Len()), f.Data, r.shapeFor(spec))
		if err != nil {
			compress.PutBytes(buf)
			f.Release()
			return "", err
		}
		cr := compress.Ratio(len(buf), f.Len())
		compress.PutBytes(buf)
		f.Release()
		t.AddRow(name, spec.Units, report.Sci(s.Min), report.Sci(s.Max),
			report.Sci(s.Mean), report.Sci(s.Std), report.Fix(cr, 2))
	}
	return t.String(), nil
}

// ErrorEntry is one (variable, variant) cell of the §5.2 error tables.
type ErrorEntry struct {
	Errors metrics.Errors
	CR     float64
}

// ErrorMatrix compresses member 0 of each listed variable with every study
// variant and collects the §4.2 error measures — the data behind Tables 3–4
// and Figure 1. Cells are cached as artifacts keyed on (substrate, grid,
// spec, variant): a warm run decodes the whole matrix without generating a
// single field, and invalidating one variant recomputes only its column
// (from the cached member-0 field when present).
func (r *Runner) ErrorMatrix(varNames []string) (map[string]map[string]ErrorEntry, error) {
	out := make(map[string]map[string]ErrorEntry, len(varNames))
	indices := make([]int, 0, len(varNames))
	for _, n := range varNames {
		idx, err := r.varIndex(n)
		if err != nil {
			return nil, err
		}
		indices = append(indices, idx)
		out[n] = make(map[string]ErrorEntry)
	}
	var mu sync.Mutex
	err := r.forEachVar(indices, func(idx int) error {
		entries, err := r.computeErrorVariable(idx)
		if err != nil {
			return err
		}
		mu.Lock()
		for variant, e := range entries {
			out[r.Catalog[idx].Name][variant] = e
		}
		mu.Unlock()
		return nil
	})
	return out, err
}

// computeErrorVariable produces one variable's row of the §5.2 error
// matrix — every study variant's error measures and CR on member 0 —
// reading cached cells where present and computing (and persisting) only
// the missing ones. It is both the per-variable body of ErrorMatrix and
// the work unit the sharded runner claims per variable (ErrorUnits).
func (r *Runner) computeErrorVariable(idx int) (map[string]ErrorEntry, error) {
	spec := r.Catalog[idx]
	s := r.store()
	entries := make(map[string]ErrorEntry, len(Variants()))
	missing := Variants()
	if s.Enabled() {
		missing = missing[:0:0]
		for _, variant := range Variants() {
			if payload, ok := s.Get(r.errmatKey(spec, variant)); ok {
				if e, ok := decodeErrorEntry(payload); ok {
					entries[variant] = e
					continue
				}
			}
			missing = append(missing, variant)
		}
	}
	if len(missing) > 0 {
		f := r.memberField(idx, 0)
		summary := f.Summarize()
		shape := r.shapeFor(spec)
		// Fused sweep: one stream buffer serves every variant, and each
		// reconstruction decodes chunk by chunk straight into the streaming
		// Comparer, so no reconstructed field exists on natively chunked
		// variants.
		var buf []byte
		var cmp metrics.Comparer
		for _, variant := range missing {
			codec, err := r.CodecFor(variant, spec, nil, summary.Range)
			if err != nil {
				return nil, err
			}
			cmp.Reset(f.Fill, f.HasFill)
			withStage("decode", func() {
				buf, err = compress.CompressInto(codec, buf[:0], f.Data, shape)
				if err != nil {
					return
				}
				// Empty chunk: native decoders stream through their own
				// pooled buffer; the fallback yields direct windows of its
				// internal reconstruction instead of copying each one out.
				err = compress.DecodeChunks(codec, buf, nil, func(off int, vals []float32) error {
					if off+len(vals) > f.Len() {
						return fmt.Errorf("%w: chunk [%d,%d) outside field of %d points", compress.ErrCorrupt, off, off+len(vals), f.Len())
					}
					cmp.Push(f.Data[off:off+len(vals)], vals, off)
					return nil
				})
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", spec.Name, variant, err)
			}
			var e ErrorEntry
			withStage("metrics", func() {
				e = ErrorEntry{
					Errors: cmp.Finish(),
					CR:     compress.Ratio(len(buf), f.Len()),
				}
			})
			entries[variant] = e
			if s.Enabled() {
				s.Put(r.errmatKey(spec, variant), encodeErrorEntry(e))
			}
		}
		f.Release()
	}
	return entries, nil
}

// renderErrorTable renders Table 3 (NRMSE) or Table 4 (e_nmax).
func (r *Runner) renderErrorTable(title string, pick func(metrics.Errors) float64) (string, error) {
	names := varcatalog.Featured()
	matrix, err := r.ErrorMatrix(names)
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:   title,
		Headers: append([]string{"Comp. Method"}, names...),
	}
	for _, variant := range Variants() {
		row := []string{Label(variant)}
		for _, name := range names {
			e := matrix[name][variant]
			row = append(row, fmt.Sprintf("%s (%s)", report.Sci(pick(e.Errors)), report.Fix(e.CR, 2)))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Table3 renders NRMS errors (and CR) for the featured variables.
func (r *Runner) Table3() (string, error) {
	return r.renderErrorTable(
		fmt.Sprintf("Table 3: NRMSE (and CR) between original and reconstructed datasets (grid %s).", r.Cfg.Grid.Name),
		func(e metrics.Errors) float64 { return e.NRMSE })
}

// Table4 renders maximum normalized pointwise errors (and CR).
func (r *Runner) Table4() (string, error) {
	return r.renderErrorTable(
		fmt.Sprintf("Table 4: normalized maximum pointwise error e_nmax (and CR) (grid %s).", r.Cfg.Grid.Name),
		func(e metrics.Errors) float64 { return e.ENMax })
}

// Table5 times compression and reconstruction of U (3-D) and FSDSC (2-D)
// for every variant, with a (*) marking variants whose reconstruction does
// not pass the quality tests (as in the paper's footnote).
func (r *Runner) Table5() (string, error) {
	type colResult struct {
		comp, reconst float64 // seconds (median of three runs)
		cr            float64
		starred       bool
	}
	cols := []string{"U", "FSDSC"}
	results := make(map[string]map[string]colResult)
	for _, name := range cols {
		idx, err := r.varIndex(name)
		if err != nil {
			return "", err
		}
		spec := r.Catalog[idx]
		f := r.memberField(idx, 0)
		shape := r.shapeFor(spec)
		vs, err := r.VarStatsFor(name)
		if err != nil {
			f.Release()
			return "", err
		}
		verifier := &pvt.Verifier{
			Stats: vs, Shape: shape, Thr: r.Cfg.Thr,
			TestMembers: pvt.SelectTestMembers(vs.Members(), 3, r.Cfg.Seed),
			WithBias:    false, Workers: r.workers(),
		}
		results[name] = make(map[string]colResult)
		var buf []byte
		var recon []float32
		for _, variant := range Variants() {
			codec, err := r.CodecFor(variant, spec, vs, 0)
			if err != nil {
				f.Release()
				return "", err
			}
			comp := medianTiming(3, func() error {
				var err error
				buf, err = compress.CompressInto(codec, buf[:0], f.Data, shape)
				return err
			})
			reconst := medianTiming(3, func() error {
				var err error
				recon, err = compress.DecompressInto(codec, recon, buf)
				return err
			})
			res, err := verifier.Verify(codec)
			if err != nil {
				f.Release()
				return "", err
			}
			results[name][variant] = colResult{
				comp:    comp,
				reconst: reconst,
				cr:      compress.Ratio(len(buf), f.Len()),
				starred: !(res.RhoPass && res.RMSZPass && res.EnmaxPass),
			}
		}
		f.Release()
	}
	t := &report.Table{
		Title: fmt.Sprintf("Table 5: compression/reconstruction timings (s) and CR for U (3-D) and FSDSC (2-D) (grid %s).\n"+
			"(*) marks variants whose reconstruction fails the quality tests.", r.Cfg.Grid.Name),
		Headers: []string{"Comp. Method", "U comp.", "U reconst.", "U CR", "FSDSC comp.", "FSDSC reconst.", "FSDSC CR"},
	}
	for _, variant := range Variants() {
		u := results["U"][variant]
		fs := results["FSDSC"][variant]
		star := func(c colResult) string {
			s := report.Fix(c.cr, 2)
			if c.starred {
				s += "(*)"
			}
			return s
		}
		t.AddRow(Label(variant),
			report.Fix(u.comp, 4), report.Fix(u.reconst, 4), star(u),
			report.Fix(fs.comp, 4), report.Fix(fs.reconst, 4), star(fs))
	}
	return t.String(), nil
}

// medianTiming runs fn n times and returns the median wall-clock seconds.
func medianTiming(n int, fn func() error) float64 {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		//lint:nondet wall-clock timing feeds the reported timing column only, never results or cache keys
		start := time.Now()
		if err := fn(); err != nil {
			return math.NaN()
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// VariantOutcome is the compact per-(variable, variant) verdict retained
// from the full verification sweep. Besides the default-threshold pass
// flags it keeps the raw test quantities, so pass counts can be re-derived
// under different thresholds (the paper's §4.3 note that eq. 9 "may be
// stricter than necessary" — see ThresholdSweep).
type VariantOutcome struct {
	Rho       float64
	NRMSE     float64
	Enmax     float64
	CR        float64
	RhoPass   bool
	RMSZPass  bool
	EnmaxPass bool
	BiasPass  bool
	AllPass   bool

	// Raw quantities across the test members (worst cases).
	RhoMin      float64 // minimum correlation
	RMSZDiffMax float64 // maximum |RMSZ − RMSZ̃| (eq. 8 left side)
	RMSZWithin  bool    // all reconstructed scores inside the distribution
	EnmaxRatio  float64 // maximum e_nmax / R_Enmax (eq. 11 left side)
	SlopeDist   float64 // |s_I − s_WC| (eq. 9 left side)
}

// passAt re-evaluates the four tests at the given thresholds.
func (o VariantOutcome) passAt(thr pvt.Thresholds) (rho, rmsz, enmax, bias, all bool) {
	rho = !math.IsNaN(o.RhoMin) && o.RhoMin >= thr.Correlation
	rmsz = o.RMSZWithin && !math.IsNaN(o.RMSZDiffMax) && o.RMSZDiffMax <= thr.RMSZDiff
	enmax = !math.IsNaN(o.EnmaxRatio) && o.EnmaxRatio <= thr.EnmaxRatio
	bias = !math.IsNaN(o.SlopeDist) && o.SlopeDist <= thr.SlopeDistance
	all = rho && rmsz && enmax && bias
	return
}

// Table6Result is the full verification sweep over the catalog: every
// variable × every variant, with the four tests.
type Table6Result struct {
	Variants   []string
	VarNames   []string
	Outcomes   map[string]map[string]VariantOutcome // var -> variant -> outcome
	FallbackCR map[string]map[string]float64        // var -> lossless codec -> CR
}

// PassCounts aggregates a variant's Table 6 row.
type PassCounts struct {
	Rho, RMSZ, Enmax, Bias, All int
}

// Passes tallies the Table 6 rows.
func (t6 *Table6Result) Passes() map[string]PassCounts {
	out := make(map[string]PassCounts, len(t6.Variants))
	for _, variant := range t6.Variants {
		var pc PassCounts
		for _, name := range t6.VarNames {
			o := t6.Outcomes[name][variant]
			if o.RhoPass {
				pc.Rho++
			}
			if o.RMSZPass {
				pc.RMSZ++
			}
			if o.EnmaxPass {
				pc.Enmax++
			}
			if o.BiasPass {
				pc.Bias++
			}
			if o.AllPass {
				pc.All++
			}
		}
		out[variant] = pc
	}
	return out
}

// losslessFallbacks are the codecs whose per-variable CRs Table 7/8 fall
// back to when no lossy variant passes.
var losslessFallbacks = []string{"nc", "fpzip-32"}

// RunTable6 performs the full sweep (cached on the Runner): for every
// catalog variable, build the ensemble statistics through the streaming
// pipeline, verify all nine variants with the bias test, and record
// lossless fallback CRs. Verdicts are persisted per (variable, variant):
// a fully warm run assembles the table from cached records without building
// a single ensemble, and after InvalidateVariant only that variant's column
// is re-verified.
func (r *Runner) RunTable6() (*Table6Result, error) {
	r.mu.Lock()
	if r.table6 != nil {
		t6 := r.table6
		r.mu.Unlock()
		return t6, nil
	}
	r.mu.Unlock()

	t6 := &Table6Result{
		Variants:   Variants(),
		Outcomes:   make(map[string]map[string]VariantOutcome),
		FallbackCR: make(map[string]map[string]float64),
	}
	for _, s := range r.Catalog {
		t6.VarNames = append(t6.VarNames, s.Name)
	}
	var mu sync.Mutex
	err := r.forEachVar(r.allIndices(), func(idx int) error {
		outcomes, fallbacks, err := r.computeVerifyVariable(idx)
		if err != nil {
			return err
		}
		mu.Lock()
		t6.Outcomes[r.Catalog[idx].Name] = outcomes
		t6.FallbackCR[r.Catalog[idx].Name] = fallbacks
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.table6 = t6
	r.mu.Unlock()
	return t6, nil
}

// computeVerifyVariable produces the full verification sweep of one catalog
// variable — every study variant's outcome plus the lossless fallback CRs —
// reading cached records where present and computing (and persisting) only
// the missing ones. It is both the per-variable body of RunTable6 and the
// work unit the sharded runner claims per variable (VerifyUnits).
func (r *Runner) computeVerifyVariable(idx int) (map[string]VariantOutcome, map[string]float64, error) {
	spec := r.Catalog[idx]
	s := r.store()
	variants := Variants()
	outcomes := make(map[string]VariantOutcome, len(variants))
	fallbacks := make(map[string]float64, len(losslessFallbacks))
	missing := variants
	missingFB := losslessFallbacks
	if s.Enabled() {
		missing = missing[:0:0]
		for _, variant := range variants {
			if payload, ok := s.Get(r.outcomeKey(spec, variant)); ok {
				if o, ok := decodeOutcome(payload); ok {
					outcomes[variant] = o
					continue
				}
			}
			missing = append(missing, variant)
		}
		missingFB = missingFB[:0:0]
		for _, lname := range losslessFallbacks {
			if payload, ok := s.Get(r.fallbackKey(spec, lname)); ok {
				if cr, ok := decodeFloat(payload); ok {
					fallbacks[lname] = cr
					continue
				}
			}
			missingFB = append(missingFB, lname)
		}
	}
	if len(missing) > 0 || len(missingFB) > 0 {
		vs, err := r.streamStats(idx)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		shape := r.shapeFor(spec)
		verifier := r.newVerifier(spec, vs)
		testMembers := verifier.TestMembers
		for _, variant := range missing {
			o, err := r.verifyVariant(verifier, spec, vs, variant)
			if err != nil {
				return nil, nil, err
			}
			outcomes[variant] = o
			if s.Enabled() {
				s.Put(r.outcomeKey(spec, variant), encodeOutcome(o))
			}
		}
		// Lossless fallback CRs on the first test member.
		for _, lname := range missingFB {
			codec, err := r.CodecFor(lname, spec, vs, 0)
			if err != nil {
				return nil, nil, err
			}
			data, release := vs.AcquireOriginal(testMembers[0])
			buf, err := compress.CompressInto(codec, compress.GetBytes(len(data)), data, shape)
			if err != nil {
				compress.PutBytes(buf)
				release()
				return nil, nil, err
			}
			cr := compress.Ratio(len(buf), len(data))
			compress.PutBytes(buf)
			release()
			fallbacks[lname] = cr
			if s.Enabled() {
				s.Put(r.fallbackKey(spec, lname), encodeFloat(cr))
			}
		}
	}
	return outcomes, fallbacks, nil
}

// newVerifier builds the four-test verifier exactly as the batch sweep
// configures it: bias test on, serial codec loop (outer layers own the
// parallelism), test members drawn from the run seed xor the variable's
// synthesis seed. Every path that wants verdicts bit-identical to the
// batch tables — computeVerifyVariable and the serving layer's VerdictFor —
// must construct its verifier here.
func (r *Runner) newVerifier(spec varcatalog.Spec, vs *ensemble.VarStats) *pvt.Verifier {
	return &pvt.Verifier{
		Stats: vs, Shape: r.shapeFor(spec), Thr: r.Cfg.Thr,
		TestMembers: pvt.SelectTestMembers(vs.Members(), 3, r.Cfg.Seed^spec.Seed),
		WithBias:    true, Workers: 1,
	}
}

// verifyVariant runs one study variant through the verifier and condenses
// the full pvt.Result into the compact VariantOutcome record the artifact
// cache (and the serving layer) persists.
func (r *Runner) verifyVariant(verifier *pvt.Verifier, spec varcatalog.Spec, vs *ensemble.VarStats, variant string) (VariantOutcome, error) {
	codec, err := r.CodecFor(variant, spec, vs, 0)
	if err != nil {
		return VariantOutcome{}, err
	}
	res, err := verifier.Verify(codec)
	if err != nil {
		return VariantOutcome{}, fmt.Errorf("%s/%s: %w", spec.Name, variant, err)
	}
	o := VariantOutcome{
		CR:        res.MeanCR,
		RhoPass:   res.RhoPass,
		RMSZPass:  res.RMSZPass,
		EnmaxPass: res.EnmaxPass,
		BiasPass:  res.BiasPass,
		AllPass:   res.AllPass,
		SlopeDist: res.Bias.SlopeWorstCaseDistance(),
	}
	if len(res.Checks) > 0 {
		o.Rho = res.Checks[0].Errors.Pearson
		o.NRMSE = res.Checks[0].Errors.NRMSE
		o.Enmax = res.Checks[0].Errors.ENMax
	}
	// Worst-case raw quantities over the test members.
	o.RhoMin = math.Inf(1)
	o.RMSZWithin = true
	slack := 0.01 * res.RMSZBox.Range()
	for _, chk := range res.Checks {
		if chk.Errors.Pearson < o.RhoMin || math.IsNaN(chk.Errors.Pearson) {
			o.RhoMin = chk.Errors.Pearson
		}
		if d := math.Abs(chk.RMSZRecon - chk.RMSZOrig); d > o.RMSZDiffMax || math.IsNaN(d) {
			o.RMSZDiffMax = d
		}
		if chk.RMSZRecon < res.RMSZBox.Min-slack || chk.RMSZRecon > res.RMSZBox.Max+slack {
			o.RMSZWithin = false
		}
		if res.EnmaxSpread > 0 {
			if ratio := chk.Errors.ENMax / res.EnmaxSpread; ratio > o.EnmaxRatio || math.IsNaN(ratio) {
				o.EnmaxRatio = ratio
			}
		} else {
			o.EnmaxRatio = math.NaN()
		}
	}
	return o, nil
}

// PassesAt tallies pass counts at arbitrary thresholds from the retained
// raw quantities.
func (t6 *Table6Result) PassesAt(thr pvt.Thresholds) map[string]PassCounts {
	out := make(map[string]PassCounts, len(t6.Variants))
	for _, variant := range t6.Variants {
		var pc PassCounts
		for _, name := range t6.VarNames {
			rho, rmsz, enmax, bias, all := t6.Outcomes[name][variant].passAt(thr)
			if rho {
				pc.Rho++
			}
			if rmsz {
				pc.RMSZ++
			}
			if enmax {
				pc.Enmax++
			}
			if bias {
				pc.Bias++
			}
			if all {
				pc.All++
			}
		}
		out[variant] = pc
	}
	return out
}

// ThresholdSweep re-derives the Table 6 "all" column under a spectrum of
// acceptance thresholds, from twice as strict to four times as loose —
// the paper's §4.3 question of whether eq. 9 (and friends) are "stricter
// than necessary", answered without re-running the sweep.
func (r *Runner) ThresholdSweep() (string, error) {
	t6, err := r.RunTable6()
	if err != nil {
		return "", err
	}
	type setting struct {
		label string
		thr   pvt.Thresholds
	}
	def := r.Cfg.Thr
	scale := func(f float64) pvt.Thresholds {
		// The correlation threshold scales in (1 − ρ) space.
		return pvt.Thresholds{
			Correlation:   1 - (1-def.Correlation)*f,
			RMSZDiff:      def.RMSZDiff * f,
			EnmaxRatio:    def.EnmaxRatio * f,
			SlopeDistance: def.SlopeDistance * f,
		}
	}
	settings := []setting{
		{"x0.5 (stricter)", scale(0.5)},
		{"x1 (paper)", def},
		{"x2", scale(2)},
		{"x4 (looser)", scale(4)},
	}
	t := &report.Table{
		Title: fmt.Sprintf("Threshold sensitivity: variables passing ALL tests out of %d, as the §4.3 thresholds scale (grid %s).",
			len(t6.VarNames), r.Cfg.Grid.Name),
		Headers: append([]string{"Comp. Method"}, func() []string {
			var hs []string
			for _, s := range settings {
				hs = append(hs, s.label)
			}
			return hs
		}()...),
	}
	for _, variant := range t6.Variants {
		row := []string{Label(variant)}
		for _, s := range settings {
			row = append(row, fmt.Sprint(t6.PassesAt(s.thr)[variant].All))
		}
		t.AddRow(row...)
	}
	return t.String(), nil
}

// Table6 renders the pass counts.
func (r *Runner) Table6() (string, error) {
	t6, err := r.RunTable6()
	if err != nil {
		return "", err
	}
	passes := t6.Passes()
	t := &report.Table{
		Title: fmt.Sprintf("Table 6: number of passes for all compression methods on %d variables (grid %s, %d members).",
			len(t6.VarNames), r.Cfg.Grid.Name, r.Cfg.Members),
		Headers: []string{"Comp. Method", "rho", "RMSZ ens.", "Enmax ens.", "bias", "all"},
	}
	for _, variant := range t6.Variants {
		pc := passes[variant]
		t.AddRow(Label(variant),
			fmt.Sprint(pc.Rho), fmt.Sprint(pc.RMSZ), fmt.Sprint(pc.Enmax),
			fmt.Sprint(pc.Bias), fmt.Sprint(pc.All))
	}
	return t.String(), nil
}

// hybridChoices runs the §5.4 per-variable customization for each family.
func (r *Runner) hybridChoices() (map[string][]hybrid.Choice, error) {
	t6, err := r.RunTable6()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]hybrid.Choice)
	for _, fam := range hybrid.StudyFamilies() {
		var choices []hybrid.Choice
		for _, name := range t6.VarNames {
			outcomes := make(map[string]hybrid.Outcome)
			for variant, o := range t6.Outcomes[name] {
				outcomes[variant] = hybrid.Outcome{
					Pass: o.AllPass, CR: o.CR, Rho: o.Rho, NRMSE: o.NRMSE, Enmax: o.Enmax,
				}
			}
			fb := hybrid.Outcome{
				CR: t6.FallbackCR[name][fam.Fallback], Rho: 1, NRMSE: 0, Enmax: 0,
			}
			choices = append(choices, hybrid.Select(name, fam, outcomes, fb))
		}
		out[fam.Name] = choices
	}
	return out, nil
}

// Table7 renders the hybrid-method comparison, including the all-lossless
// NetCDF-4 ("NC") column.
func (r *Runner) Table7() (string, error) {
	byFam, err := r.hybridChoices()
	if err != nil {
		return "", err
	}
	t6, _ := r.RunTable6()
	famOrder := []string{"GRIB2", "ISABELA", "fpzip", "APAX"}
	summaries := make(map[string]hybrid.Summary)
	for _, fam := range famOrder {
		summaries[fam] = hybrid.Summarize(byFam[fam])
	}
	// NC column: lossless NetCDF-4 on every variable.
	var ncChoices []hybrid.Choice
	for _, name := range t6.VarNames {
		ncChoices = append(ncChoices, hybrid.Choice{
			Variable: name, Variant: "nc",
			Outcome: hybrid.Outcome{Pass: true, CR: t6.FallbackCR[name]["nc"], Rho: 1},
		})
	}
	summaries["NC"] = hybrid.Summarize(ncChoices)

	t := &report.Table{
		Title: fmt.Sprintf("Table 7: per-variable hybrid methods over %d variables (grid %s).",
			len(t6.VarNames), r.Cfg.Grid.Name),
		Headers: []string{"", "GRIB2", "ISABELA", "fpzip", "APAX", "NC"},
	}
	cols := append(famOrder, "NC")
	row := func(label string, pick func(hybrid.Summary) string) {
		cells := []string{label}
		for _, c := range cols {
			cells = append(cells, pick(summaries[c]))
		}
		t.AddRow(cells...)
	}
	row("avg. CR", func(s hybrid.Summary) string { return report.Fix(s.AvgCR, 2) })
	row("best CR", func(s hybrid.Summary) string { return report.Fix(s.BestCR, 2) })
	row("worst CR", func(s hybrid.Summary) string { return report.Fix(s.WorstCR, 2) })
	row("avg. rho", func(s hybrid.Summary) string { return report.Fix(s.AvgRho, 7) })
	row("avg. nrmse", func(s hybrid.Summary) string { return report.Sci(s.AvgNRMSE) })
	row("avg. e_nmax", func(s hybrid.Summary) string { return report.Sci(s.AvgEnmax) })
	return t.String(), nil
}

// Table8 renders the composition of each hybrid.
func (r *Runner) Table8() (string, error) {
	byFam, err := r.hybridChoices()
	if err != nil {
		return "", err
	}
	t := &report.Table{
		Title:   "Table 8: number of variables using each variant in the hybrid methods.",
		Headers: []string{"Method", "Variant", "Number of Variables"},
	}
	for _, fam := range []string{"GRIB2", "ISABELA", "fpzip", "APAX"} {
		comp := hybrid.Composition(byFam[fam])
		for _, variant := range sortedKeys(comp) {
			t.AddRow(fam, Label(variant), fmt.Sprint(comp[variant]))
		}
	}
	return t.String(), nil
}
