package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"climcompress/internal/artifact"
	"climcompress/internal/compress"
	"climcompress/internal/ensemble"
	"climcompress/internal/experiments"
	"climcompress/internal/field"
	"climcompress/internal/grid"
	"climcompress/internal/l96"
	"climcompress/internal/metrics"
	"climcompress/internal/par"
	"climcompress/internal/pvt"
	"climcompress/internal/shard"
	"climcompress/internal/varcatalog"
)

// The traced run drives the pipeline in process through its public entry
// points, with the same inputs as the untraced run, in two phases:
//
//  1. The real run: the runner's work units (Runner.VerifyUnits or
//     ErrorUnits, or shard.Run over them for the sharded workload) execute
//     on the same worker pool the CLI uses, each under an experiments.unit
//     span, then the experiment renders from the now-warm store. Its output
//     must be byte-identical to the untraced run's. Artifact and shard
//     counts come from this phase.
//  2. The layer replay: for every unit, in the unit's order, the benchmark
//     calls the public functions of each layer below the unit boundary on
//     that unit's inputs (Generator.Field, ensemble.BuildStream,
//     Runner.CodecFor with compress.CompressInto and DecodeChunks,
//     metrics.Comparer, pvt.Verifier.Verify), each under its own span.
//
// Spans inside the program are not possible without changing it; the
// replay is how this benchmark splits a unit's time by layer. Phase 2
// roughly doubles the traced run's wall time, which trace.overhead_share
// reports.

// layers are the span layers the replay attributes a unit's time to.
var replayLayers = []string{"model", "ensemble", "compress", "decode", "metrics", "pvt"}

// counters are the traced run's work counts.
type counters struct {
	l96Hits, l96Members                       atomic.Int64
	fields, memberPasses                      atomic.Int64
	compressIn, compressOut, decodeOut, chunk atomic.Int64
	points, verifies                          atomic.Int64
}

// l96Hook is the Config.L96Source closure of the CLI, traced.
func l96Hook(t *tracer, parent int64, dir string, c *counters) func() *l96.Ensemble {
	var once sync.Once
	var ens *l96.Ensemble
	return func() *l96.Ensemble {
		once.Do(func() {
			sp := t.start("l96.load_or_compute", parent)
			var hit bool
			ens, hit = l96.LoadOrCompute(l96.DefaultParams(), l96.DefaultEnsembleConfig(members), dir)
			sp.end()
			if hit {
				c.l96Hits.Add(1)
			} else {
				c.l96Members.Add(int64(members))
			}
		})
		return ens
	}
}

// newRunner builds a runner exactly as climatebench does for these flags.
func newRunner(gridName string, workers int, pseed uint64, vars []string, store *artifact.Store, hook func() *l96.Ensemble) *experiments.Runner {
	cfg := experiments.DefaultConfig(grid.ByName(gridName))
	cfg.Members = members
	cfg.Workers = workers
	cfg.Seed = pseed
	cfg.Variables = vars
	cfg.Cache = store
	cfg.L96Source = hook
	return experiments.NewRunner(cfg, nil)
}

// spanSource is an ensemble.Source over the runner's generator that times
// each member field under the current parent span.
type spanSource struct {
	t      *tracer
	gen    *experiments.Runner
	c      *counters
	parent atomic.Int64
	passes *atomic.Int64 // counts fields while an ensemble build runs; nil otherwise
}

func (s *spanSource) Members() int { return members }

func (s *spanSource) Field(varIdx, m int) *field.Field {
	sp := s.t.start("model.field", s.parent.Load())
	f := s.gen.Generator().Field(varIdx, m)
	sp.end()
	s.c.fields.Add(1)
	if p := s.passes; p != nil {
		p.Add(1)
	}
	return f
}

func (s *spanSource) Release(f *field.Field) { f.Release() }

// tracedCodec wraps a codec handed to pvt.Verifier.Verify so its compress
// and decode calls are timed. It implements the same optional interfaces
// as the codecs it wraps, so Verify takes the same paths. The values a
// decode yields are consumed inside pvt: the first testMembers decodes of
// one Verify are the fused per-member checks (metrics layer), the rest the
// bias test's RMSZ passes (ensemble layer).
type tracedCodec struct {
	inner       compress.Codec
	t           *tracer
	c           *counters
	parent      int64
	testMembers int64
	decodes     atomic.Int64
}

func (tc *tracedCodec) Name() string   { return tc.inner.Name() }
func (tc *tracedCodec) Lossless() bool { return tc.inner.Lossless() }

func (tc *tracedCodec) Compress(data []float32, shape compress.Shape) ([]byte, error) {
	return tc.CompressInto(nil, data, shape)
}

func (tc *tracedCodec) Decompress(buf []byte) ([]float32, error) {
	return tc.DecompressInto(nil, buf)
}

func (tc *tracedCodec) CompressInto(dst []byte, data []float32, shape compress.Shape) ([]byte, error) {
	sp := tc.t.start("compress.into", tc.parent)
	n0 := len(dst)
	out, err := compress.CompressInto(tc.inner, dst, data, shape)
	sp.end()
	tc.c.compressIn.Add(int64(4 * len(data)))
	tc.c.compressOut.Add(int64(len(out) - n0))
	return out, err
}

func (tc *tracedCodec) DecompressInto(dst []float32, buf []byte) ([]float32, error) {
	sp := tc.t.start("decode.into", tc.parent)
	out, err := compress.DecompressInto(tc.inner, dst, buf)
	sp.end()
	tc.c.decodeOut.Add(int64(4 * len(out)))
	return out, err
}

func (tc *tracedCodec) DecodeChunks(compressed []byte, chunk []float32, yield func(off int, vals []float32) error) error {
	consumer := "ensemble.rmsz"
	if tc.decodes.Add(1) <= tc.testMembers {
		consumer = "metrics.accumulate"
	}
	sp := tc.t.start("decode.chunks", tc.parent)
	err := compress.DecodeChunks(tc.inner, compressed, chunk, func(off int, vals []float32) error {
		tc.c.chunk.Add(1)
		tc.c.decodeOut.Add(int64(4 * len(vals)))
		if consumer == "metrics.accumulate" {
			tc.c.points.Add(int64(len(vals)))
		}
		ysp := tc.t.start(consumer, sp.ID())
		err := yield(off, vals)
		ysp.end()
		return err
	})
	sp.end()
	return err
}

// shapeOf is the codec shape of a variable on g (the runner's shapeFor).
func shapeOf(g *grid.Grid, spec varcatalog.Spec) compress.Shape {
	nlev := 1
	if spec.ThreeD {
		nlev = g.NLev
	}
	return compress.Shape{NLev: nlev, NLat: g.NLat, NLon: g.NLon}
}

// losslessFallbacks mirrors the runner's Table 7/8 fallback codecs, which a
// verify unit also compresses.
var losslessFallbacks = []string{"nc", "fpzip-32"}

// replayVerify replays one verify unit's layer calls under parent: the
// streamed ensemble build, every variant's four-test verification (as the
// runner's newVerifier configures it) and the lossless fallback ratios.
func replayVerify(t *tracer, c *counters, r *experiments.Runner, idx int, parent int64) error {
	spec := r.Catalog[idx]
	src := &spanSource{t: t, gen: r, c: c}
	sp := t.start("ensemble.build", parent)
	src.parent.Store(sp.ID())
	src.passes = &c.memberPasses
	vs, err := ensemble.BuildStream(src, idx)
	sp.end()
	src.passes = nil
	if err != nil {
		return err
	}
	shape := shapeOf(r.Cfg.Grid, spec)
	verifier := &pvt.Verifier{
		Stats: vs, Shape: shape, Thr: r.Cfg.Thr,
		TestMembers: pvt.SelectTestMembers(vs.Members(), 3, r.Cfg.Seed^spec.Seed),
		WithBias:    true, Workers: 1,
	}
	for _, variant := range experiments.Variants() {
		codec, err := r.CodecFor(variant, spec, vs, 0)
		if err != nil {
			return err
		}
		sp := t.start("pvt.verify", parent)
		src.parent.Store(sp.ID())
		_, err = verifier.Verify(&tracedCodec{inner: codec, t: t, c: c, parent: sp.ID(), testMembers: int64(len(verifier.TestMembers))})
		sp.end()
		c.verifies.Add(1)
		if err != nil {
			return err
		}
	}
	src.parent.Store(parent)
	for _, name := range losslessFallbacks {
		codec, err := r.CodecFor(name, spec, vs, 0)
		if err != nil {
			return err
		}
		data, release := vs.AcquireOriginal(verifier.TestMembers[0])
		tc := &tracedCodec{inner: codec, t: t, c: c, parent: parent}
		buf, err := tc.CompressInto(compress.GetBytes(len(data)), data, shape)
		compress.PutBytes(buf)
		release()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayErrors replays one error-matrix unit: member 0's field, then per
// variant compress, chunked decode into the Comparer, and Finish.
func replayErrors(t *tracer, c *counters, r *experiments.Runner, idx int, parent int64) error {
	spec := r.Catalog[idx]
	sp := t.start("model.field", parent)
	f := r.Generator().Field(idx, 0)
	sp.end()
	c.fields.Add(1)
	defer f.Release()
	summary := f.Summarize()
	shape := shapeOf(r.Cfg.Grid, spec)
	var buf []byte
	var cmp metrics.Comparer
	for _, variant := range experiments.Variants() {
		codec, err := r.CodecFor(variant, spec, nil, summary.Range)
		if err != nil {
			return err
		}
		cmp.Reset(f.Fill, f.HasFill)
		sp := t.start("compress.into", parent)
		buf, err = compress.CompressInto(codec, buf[:0], f.Data, shape)
		sp.end()
		if err != nil {
			return err
		}
		c.compressIn.Add(int64(4 * f.Len()))
		c.compressOut.Add(int64(len(buf)))
		dsp := t.start("decode.chunks", parent)
		err = compress.DecodeChunks(codec, buf, nil, func(off int, vals []float32) error {
			if off+len(vals) > f.Len() {
				return fmt.Errorf("%s/%s: chunk outside the field", spec.Name, variant)
			}
			c.chunk.Add(1)
			c.decodeOut.Add(int64(4 * len(vals)))
			msp := t.start("metrics.push", dsp.ID())
			cmp.Push(f.Data[off:off+len(vals)], vals, off)
			msp.end()
			return nil
		})
		dsp.end()
		if err != nil {
			return err
		}
		fsp := t.start("metrics.finish", parent)
		cmp.Finish()
		fsp.end()
		c.points.Add(int64(cmp.Total()))
	}
	return nil
}

// pool runs fn over n items on lanes workers the way the runner's
// forEachVar does (par.EachLimit), under a par.pool span.
func pool(t *tracer, parent int64, n, lanes int, fn func(k int, parent int64) error) error {
	sp := t.start("par.pool", parent)
	defer sp.end()
	errs := make([]error, n)
	par.EachLimit(n, lanes, func(k int) error {
		errs[k] = fn(k, sp.ID())
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedBatch is one traced pass of a batch workload.
type tracedBatch struct {
	out    []byte
	wall   time.Duration
	lanes  int
	stats  artifact.Stats
	bytes  int64
	shards []shard.Summary
	dups   int
	merge  time.Duration
}

func runBatchTraced(e *env, name string, spec batchSpec) (*outcome, error) {
	in, err := newBatchInputs(spec, e.seed)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.note("inputs: %s grid, %d members, %d variables, program -seed %d; one untraced sweep, then the traced pass",
		spec.grid, members, len(in.vars), in.pseed)
	sweeps, _, ref, err := batchPasses(e, in, 1)
	if err != nil {
		return nil, err
	}
	o.attempted = int64(2 * in.cells)
	base := sweeps[0]
	if base.err != nil {
		o.note("untraced sweep failed: %v", base.err)
		o.failed += int64(in.cells)
	}
	if spec.supervise > 0 && !bytes.Equal(base.res.stdout, ref) {
		o.note("sharded output differs from the single-process reference")
		o.failed += int64(in.cells)
	}
	t := newTracer(fmt.Sprintf("%s-%d", name, e.seed))
	c := &counters{}
	dir, err := e.scratch("traced")
	if err != nil {
		return nil, err
	}
	tb, err := traceBatch(t, c, in, dir)
	if err != nil {
		o.note("traced pass failed: %v", err)
		o.failed += int64(in.cells)
	} else if !bytes.Equal(tb.out, base.res.stdout) {
		o.note("traced output differs from the untraced output")
		o.failed += int64(in.cells)
	} else {
		o.note("traced output byte-identical to untraced (sha256 %s)", digest(tb.out))
	}
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
	if err == nil {
		reportBatchLayers(o, t, c, tb, base.res.wall)
	}
	return o, writeSpans(e, t)
}

// traceBatch runs both traced phases of a batch workload on an empty store
// in dir and returns the rendered output (stdout bytes, as the CLI prints
// them) with phase-1 counts.
func traceBatch(t *tracer, c *counters, in batchInputs, dir string) (tracedBatch, error) {
	var tb tracedBatch
	spec := in.spec
	start := time.Now()
	root := t.start("run", 0)
	defer root.end()
	store := artifact.Open(dir)
	render := func(r *experiments.Runner, parent int64) (string, error) {
		sp := t.start("report.render", parent)
		defer sp.end()
		if spec.experiment == "fig1" {
			return r.Fig1()
		}
		return r.Table6()
	}
	units := func(r *experiments.Runner) []shard.Unit {
		if spec.experiment == "fig1" {
			return r.ErrorUnits()
		}
		return r.VerifyUnits()
	}
	replay := replayVerify
	if spec.experiment == "fig1" {
		replay = replayErrors
	}

	var r *experiments.Runner
	var out string
	var err error
	if spec.supervise > 0 {
		// The supervisor: one integration of the substrate, loaded from
		// disk by every shard, then the merge render.
		par.SetWidth(spec.workers)
		r = newRunner(spec.grid, spec.workers, in.pseed, in.vars, store, l96Hook(t, root.ID(), store.L96Dir(), c))
		r.L96()
		tb.lanes = spec.supervise
		computed := make([][]string, spec.supervise)
		stores := make([]*artifact.Store, spec.supervise)
		errs := make([]error, spec.supervise)
		psp := t.start("par.pool", root.ID())
		var wg sync.WaitGroup
		for i := 0; i < spec.supervise; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stores[i] = artifact.Open(dir)
				sr := newRunner(spec.grid, spec.workers, in.pseed, in.vars, stores[i], l96Hook(t, psp.ID(), stores[i].L96Dir(), c))
				ssp := t.start("shard.run", psp.ID())
				us := units(sr)
				for k := range us {
					run := us[k].Run
					us[k].Run = func() error {
						sp := t.start("experiments.unit", ssp.ID())
						defer sp.end()
						return run()
					}
				}
				owner := fmt.Sprintf("shard-%d", i)
				res, err := shard.Run(us, shard.Options{Store: stores[i], Self: i, Shards: spec.supervise, TTL: 2 * time.Minute, Owner: owner})
				shard.PutSummary(stores[i], owner, res)
				ssp.end()
				computed[i], errs[i] = res.Computed, err
			}(i)
		}
		wg.Wait()
		psp.end()
		for _, err := range errs {
			if err != nil {
				return tb, err
			}
		}
		msp := t.start("shard.merge", root.ID())
		for i := 0; i < spec.supervise; i++ {
			if sum, ok := shard.LoadSummary(store, fmt.Sprintf("shard-%d", i)); ok {
				tb.shards = append(tb.shards, sum)
			}
		}
		out, err = render(r, msp.ID())
		tb.merge = msp.end()
		tb.dups = duplicates(computed)
		for _, s := range stores {
			tb.stats = addStats(tb.stats, s.Stats())
		}
	} else {
		par.SetWidth(spec.workers)
		r = newRunner(spec.grid, spec.workers, in.pseed, in.vars, store, l96Hook(t, root.ID(), store.L96Dir(), c))
		tb.lanes = spec.workers
		us := units(r)
		err = pool(t, root.ID(), len(us), spec.workers, func(k int, parent int64) error {
			sp := t.start("experiments.unit", parent)
			defer sp.end()
			return us[k].Run()
		})
		if err != nil {
			return tb, err
		}
		out, err = render(r, root.ID())
	}
	if err != nil {
		return tb, err
	}
	tb.out = []byte(out + "\n")
	tb.stats = addStats(tb.stats, store.Stats())
	_, tb.bytes = store.Usage()

	// Phase 2: the layer replay, unit by unit on the same number of lanes.
	par.SetWidth(tb.lanes)
	rsp := t.start("replay", root.ID())
	err = pool(t, rsp.ID(), len(r.Catalog), tb.lanes, func(k int, parent int64) error {
		sp := t.start("replay.unit", parent)
		defer sp.end()
		return replay(t, c, r, k, sp.ID())
	})
	rsp.end()
	tb.wall = time.Since(start)
	return tb, err
}

// duplicates counts units more than one shard computed.
func duplicates(computed [][]string) int {
	seen := map[string]int{}
	for _, names := range computed {
		for _, n := range names {
			seen[n]++
		}
	}
	d := 0
	for _, k := range seen {
		if k > 1 {
			d++
		}
	}
	return d
}

func addStats(a, b artifact.Stats) artifact.Stats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Puts += b.Puts
	a.BadReads += b.BadReads
	a.Claims += b.Claims
	a.ClaimLosses += b.ClaimLosses
	a.MemHits += b.MemHits
	a.MemEvictions += b.MemEvictions
	return a
}

// reportBatchLayers derives the per-layer metrics of a traced batch run.
func reportBatchLayers(o *outcome, t *tracer, c *counters, tb tracedBatch, untraced time.Duration) {
	spans := t.snapshot()
	self := selfTimes(spans)
	byLayer := layerSelf(spans)
	sec := func(d time.Duration) float64 { return d.Seconds() }

	l96Spans := named(spans, "l96.load_or_compute")
	var l96Busy time.Duration
	for _, s := range l96Spans {
		l96Busy += s.dur()
	}
	o.set("l96.busy_s", sec(l96Busy), len(l96Spans))
	o.set("l96.members_integrated", float64(c.l96Members.Load()), len(l96Spans))
	o.set("l96.disk_hits", float64(c.l96Hits.Load()), len(l96Spans))
	o.set("model.fields", float64(c.fields.Load()), 1)
	o.set("model.busy_s", sec(byLayer["model"]), int(c.fields.Load()))
	o.set("ensemble.busy_s", sec(byLayer["ensemble"]), 1)
	o.set("ensemble.member_passes", float64(c.memberPasses.Load()), 1)
	in, cout, dout := c.compressIn.Load(), c.compressOut.Load(), c.decodeOut.Load()
	o.set("compress.busy_s", sec(byLayer["compress"]), 1)
	o.set("compress.mb_per_s", rate(float64(in)/1e6, byLayer["compress"]), 1)
	o.set("compress.ratio", ratio(float64(in), float64(cout)), 1)
	o.set("decode.busy_s", sec(byLayer["decode"]), 1)
	o.set("decode.mb_per_s", rate(float64(dout)/1e6, byLayer["decode"]), 1)
	o.set("decode.chunks", float64(c.chunk.Load()), 1)
	o.set("metrics.busy_s", sec(byLayer["metrics"]), 1)
	o.set("metrics.points", float64(c.points.Load()), 1)
	o.set("pvt.verifies", float64(c.verifies.Load()), 1)
	o.set("pvt.self_s", sec(byLayer["pvt"]), int(c.verifies.Load()))
	setArtifact(o, tb.stats, tb.bytes)

	// Units: phase-1 durations, and each unit's time outside the replayed
	// layers (and outside the substrate integration it may have waited on).
	units := named(spans, "experiments.unit")
	var durs []float64
	var unitWork, layerWork time.Duration
	for _, u := range units {
		durs = append(durs, u.dur().Seconds())
		unitWork += u.dur() - covered(u.Start, u.End, l96Spans)
	}
	children := childIndex(spans)
	for _, ru := range named(spans, "replay.unit") {
		for _, d := range descendants(children, ru.ID) {
			if isReplayLayer(d.layer()) {
				layerWork += self[d.ID]
			}
		}
	}
	sort.Float64s(durs)
	o.set("experiments.unit_p50_s", median(durs), len(durs))
	o.set("experiments.unit_max_s", maxOf(durs), len(durs))
	o.set("experiments.self_s", sec(nonNeg(unitWork-layerWork)), len(durs))
	o.set("trace.coverage", ratio(float64(layerWork), float64(unitWork)), len(durs))

	// The phase-1 pool.
	var pools []span
	for _, p := range named(spans, "par.pool") {
		if p.Parent == firstID(spans, "run") {
			pools = append(pools, p)
		}
	}
	util, tailT := 0.0, time.Duration(0)
	if len(pools) == 1 {
		p := pools[0]
		var busy time.Duration
		for _, u := range units {
			busy += u.dur()
		}
		util = float64(busy) / (float64(p.dur()) * float64(tb.lanes))
		tailT = tailTime(units, p, tb.lanes)
	}
	o.set("par.utilization", util, len(units))
	o.set("par.tail_s", sec(tailT), len(units))

	var sum shard.Summary
	for _, s := range tb.shards {
		sum.Computed += s.Computed
		sum.Stolen += s.Stolen
		sum.Expired += s.Expired
		sum.Waits += s.Waits
	}
	o.set("shard.units_computed", float64(sum.Computed), len(tb.shards))
	o.set("shard.dup_computes", float64(tb.dups), len(tb.shards))
	o.set("shard.stolen", float64(sum.Stolen), len(tb.shards))
	o.set("shard.expired", float64(sum.Expired), len(tb.shards))
	o.set("shard.waits", float64(sum.Waits), len(tb.shards))
	o.set("shard.merge_s", sec(tb.merge), len(tb.shards))
	for _, m := range []string{"serve.keytable_s", "serve.preload_s", "serve.handler_us", "serve.render_us",
		"serve.resp_hit_share", "serve.store_hits", "serve.computes", "serve.shed", "loadgen.lag_ms"} {
		o.set(m, 0, 0)
	}
	o.set("report.render_s", sec(byLayer["report"]), len(named(spans, "report.render")))
	o.set("trace.overhead_share", float64(tb.wall)/float64(untraced)-1, 1)
	o.note("traced wall %.2fs against the untraced sweep's %.2fs; %d spans", tb.wall.Seconds(), untraced.Seconds(), len(spans))
}

// setArtifact reports the artifact store's counters.
func setArtifact(o *outcome, st artifact.Stats, written int64) {
	o.set("artifact.puts", float64(st.Puts), 1)
	o.set("artifact.bytes_written", float64(written), 1)
	o.set("artifact.hits", float64(st.Hits), 1)
	o.set("artifact.misses", float64(st.Misses), 1)
	o.set("artifact.mem_hits", float64(st.MemHits), 1)
	o.set("artifact.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), 1)
	o.set("artifact.claims", float64(st.Claims), 1)
	o.set("artifact.claim_losses", float64(st.ClaimLosses), 1)
}

func isReplayLayer(l string) bool {
	for _, r := range replayLayers {
		if r == l {
			return true
		}
	}
	return false
}

// firstID returns the ID of the first span called name (0 if none).
func firstID(spans []span, name string) int64 {
	for _, s := range spans {
		if s.Name == name {
			return s.ID
		}
	}
	return 0
}

func childIndex(spans []span) map[int64][]span {
	out := map[int64][]span{}
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// descendants lists every span below id.
func descendants(children map[int64][]span, id int64) []span {
	var out []span
	stack := []int64{id}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[p] {
			out = append(out, c)
			stack = append(stack, c.ID)
		}
	}
	return out
}

// tailTime is how long the pool ran at the end with fewer than lanes
// units in flight: from the last moment all lanes were busy to the pool's
// end. With one lane it is zero unless the pool idled.
func tailTime(units []span, p span, lanes int) time.Duration {
	type ev struct {
		at    time.Duration
		delta int
	}
	var evs []ev
	for _, u := range units {
		evs = append(evs, ev{u.Start, 1}, ev{u.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	lastFull := p.Start
	running := 0
	for _, e := range evs {
		if running >= lanes && e.delta < 0 {
			lastFull = e.at
		}
		running += e.delta
	}
	return nonNeg(p.End - lastFull)
}

func nonNeg(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// rate is amount per second of d (0 when d is 0).
func rate(amount float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return amount / d.Seconds()
}

// ratio is a/b (0 when b is 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans stores the run's spans once, at the end of the run, beside
// the scratch directories.
func writeSpans(e *env, t *tracer) error {
	dir := filepath.Join(filepath.Dir(e.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return t.write(filepath.Join(dir, t.run+".json"))
}
