package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"climcompress/internal/artifact"
	"climcompress/internal/ensemble"
	"climcompress/internal/par"
	"climcompress/internal/serve"
)

// runServeTraced is the serving workload's traced run. It times setups
// untraced daemon launches (the baseline for trace.overhead_share), then
// builds the daemon in process through serve.New and Preload, replays the
// preload's ensemble builds layer by layer, and sends the nominal phase's
// request sequence at the nominal rate straight to Handler().ServeHTTP.
// Served bodies must match the untraced daemon's byte for byte.
func runServeTraced(e *env) (*outcome, error) {
	fixture, err := serveFixture(e)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(fixture, "store")
	plan := newLoadPlan(e.seed, e.seconds)
	seq := plan.seq[:plan.nominal]
	o := newOutcome()
	o.note("inputs: full catalog, program -seed %d, the nominal phase's %d requests at %.0f/s in process", serveSeed, len(seq), nominalRate)

	d, _, setupWall, err := launchDaemons(e, store)
	if err != nil {
		return nil, err
	}
	untracedSetup := median(setupWall)

	t := newTracer(fmt.Sprintf("serve-zipf-%d", e.seed))
	c := &counters{}
	picks := samplePairs(e.seed, seq, bodyChecks)
	ts, terr := traceServe(e.ctx, t, c, store, plan, seq, picks)
	if terr != nil {
		//lint:errdrop the run already fails with terr; the daemon only has to be stopped
		d.stop()
		return nil, terr
	}
	o.attempted = int64(len(seq))
	o.failed = int64(ts.failed)

	// Traced bodies against the untraced daemon's, for the sampled pairs.
	cl, err := dial(d.addr)
	if err != nil {
		//lint:errdrop the run already fails with err; the daemon only has to be stopped
		d.stop()
		return nil, err
	}
	mismatched := 0
	for _, p := range picks {
		status, body, err := cl.do(plan.reqs[p])
		if err != nil || status != 200 || !bytes.Equal(body, *ts.bodies.first[p].Load()) {
			mismatched++
			o.failed += ts.bodies.counts[p].Load()
		}
	}
	cl.close()
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	if mismatched > 0 {
		o.note("%d of %d sampled pairs served different bytes in process and by the daemon", mismatched, len(picks))
	} else {
		o.note("%d sampled bodies byte-identical between the traced and the untraced daemon", len(picks))
	}
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
	reportServeLayers(o, t, c, ts, untracedSetup)
	return o, writeSpans(e, t)
}

// tracedServe is what the in-process serving pass measured.
type tracedServe struct {
	bodies         *bodies
	failed         int
	setup          time.Duration // serve.New, Preload and the preload replay
	stats0, stats1 serve.StatsResponse
	lag            []float64 // generator lateness, ms, sorted
	render         []float64 // µs per first-touch render replay, sorted
}

// traceServe builds the in-process daemon over store and drives it.
func traceServe(ctx context.Context, t *tracer, c *counters, store string, plan loadPlan, seq, picks []int) (tracedServe, error) {
	ts := tracedServe{bodies: newBodies(len(plan.pairs))}
	root := t.start("run", 0)
	defer root.end()
	par.SetWidth(2)
	st := artifact.Open(store)
	r := newRunner("small", 2, serveSeed, nil, st, l96Hook(t, root.ID(), st.L96Dir(), c))
	start := time.Now()
	sp := t.start("serve.keytable", root.ID())
	srv, err := serve.New(serve.Config{Runner: r})
	sp.end()
	if err != nil {
		return ts, err
	}
	sp = t.start("serve.preload", root.ID())
	_, err = srv.Preload(ctx)
	sp.end()
	if err != nil {
		return ts, err
	}

	// Replay the preload's layers: each variable's ensemble statistics
	// rebuilt from member fields with the preloaded scores, as the
	// daemon's warm path (a cached score record) does.
	rsp := t.start("replay", root.ID())
	err = pool(t, rsp.ID(), len(r.Catalog), 2, func(k int, parent int64) error {
		vs, err := r.VarStatsFor(r.Catalog[k].Name)
		if err != nil {
			return err
		}
		src := &spanSource{t: t, gen: r, c: c, passes: &c.memberPasses}
		sp := t.start("ensemble.build", parent)
		src.parent.Store(sp.ID())
		_, err = ensemble.BuildStreamWithScoresFunc(src, k, members, func(m int) (float64, float64) { return vs.RMSZ[m], vs.Enmax[m] })
		sp.end()
		return err
	})
	rsp.end()
	ts.setup = time.Since(start)
	if err != nil {
		return ts, err
	}

	h := srv.Handler()
	if ts.stats0, err = handlerStats(h); err != nil {
		return ts, err
	}
	lsp := t.start("loadgen", root.ID())
	var next atomic.Int64
	var failed atomic.Int64
	lags := make([][]time.Duration, connections)
	begin := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			preciseTimers()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				due := time.Duration(float64(i) / nominalRate * float64(time.Second))
				if now := time.Since(begin); now < due {
					sleepFor(due - now)
					lags[w] = append(lags[w], time.Since(begin)-due)
				}
				p := plan.pairs[seq[i]]
				body := fmt.Sprintf(`{"variable":%q,"variant":%q}`, p.variable, p.variant)
				req := httptest.NewRequest(http.MethodPost, "/verdict", bytes.NewReader([]byte(body)))
				rec := httptest.NewRecorder()
				sp := t.start("serve.request", lsp.ID())
				h.ServeHTTP(rec, req)
				sp.end()
				if rec.Code != http.StatusOK || !ts.bodies.check(seq[i], rec.Body.Bytes()) {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	lsp.end()
	ts.failed = int(failed.Load())
	if ts.stats1, err = handlerStats(h); err != nil {
		return ts, err
	}
	var all []time.Duration
	for _, l := range lags {
		all = append(all, l...)
	}
	ts.lag = durationsMs(all)

	// The render step of a first touch, replayed for the sampled pairs:
	// the verdict record read back, then rendered to the response body.
	for _, p := range picks {
		pr := plan.pairs[p]
		gsp := t.start("artifact.verdict", root.ID())
		out, err := r.VerdictFor(pr.variable, pr.variant)
		gsp.end()
		if err != nil {
			return ts, err
		}
		rsp := t.start("serve.render", root.ID())
		serve.FromOutcome(pr.variable, pr.variant, out).AppendJSON(nil)
		ts.render = append(ts.render, float64(rsp.end())/float64(time.Microsecond))
	}
	sort.Float64s(ts.render)
	return ts, nil
}

// handlerStats reads GET /stats through the handler.
func handlerStats(h http.Handler) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", rec.Code)
	}
	return st, json.Unmarshal(rec.Body.Bytes(), &st)
}

// reportServeLayers derives the per-layer metrics of the traced serving
// run. Batch-only layers report 0.
func reportServeLayers(o *outcome, t *tracer, c *counters, ts tracedServe, untracedSetup float64) {
	spans := t.snapshot()
	byLayer := layerSelf(spans)
	sec := func(d time.Duration) float64 { return d.Seconds() }
	var l96Busy time.Duration
	l96Spans := named(spans, "l96.load_or_compute")
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
	for _, m := range []string{"compress.busy_s", "compress.mb_per_s", "compress.ratio", "decode.busy_s",
		"decode.mb_per_s", "decode.chunks", "metrics.busy_s", "metrics.points", "pvt.verifies", "pvt.self_s",
		"experiments.unit_p50_s", "experiments.unit_max_s", "experiments.self_s", "par.utilization", "par.tail_s",
		"shard.units_computed", "shard.dup_computes", "shard.stolen", "shard.expired", "shard.waits", "shard.merge_s",
		"report.render_s"} {
		o.set(m, 0, 0)
	}
	d := func(a, b int64) float64 { return float64(a - b) }
	s0, s1 := ts.stats0, ts.stats1
	setArtifact(o, artifact.Stats{
		Hits: s1.Cache.Hits - s0.Cache.Hits, Misses: s1.Cache.Misses - s0.Cache.Misses,
		Puts: s1.Cache.Puts - s0.Cache.Puts, MemHits: s1.Cache.MemHits - s0.Cache.MemHits,
		Claims: s1.Cache.Claims - s0.Cache.Claims, ClaimLosses: s1.Cache.ClaimLosses - s0.Cache.ClaimLosses,
	}, 0)

	keytable := named(spans, "serve.keytable")
	preload := named(spans, "serve.preload")
	if len(keytable) == 1 && len(preload) == 1 {
		o.set("serve.keytable_s", sec(keytable[0].dur()), 1)
		o.set("serve.preload_s", sec(preload[0].dur()), 1)
	}
	var handler []time.Duration
	for _, s := range named(spans, "serve.request") {
		handler = append(handler, s.dur())
	}
	hus := durationsMs(handler)
	o.set("serve.handler_us", quantile(hus, 0.5)*1000, len(hus))
	o.set("serve.render_us", quantile(ts.render, 0.5), len(ts.render))
	requests := d(s1.Serve.Requests, s0.Serve.Requests)
	o.set("serve.resp_hit_share", ratio(d(s1.Serve.RespCacheHits, s0.Serve.RespCacheHits), requests), int(requests))
	o.set("serve.store_hits", d(s1.Cache.Hits, s0.Cache.Hits), int(requests))
	o.set("serve.computes", d(s1.Serve.Computes, s0.Serve.Computes), int(requests))
	o.set("serve.shed", d(s1.Serve.Shed, s0.Serve.Shed), int(requests))
	o.set("loadgen.lag_ms", quantile(ts.lag, 0.99), len(ts.lag))

	// Coverage: the share of the in-process set-up's lane time (the preload
	// fans out over two workers) that the substrate load and the replayed
	// preload layers account for.
	setupSpans := 2 * sec(keytable[0].dur()+preload[0].dur())
	layers := sec(l96Busy + byLayer["model"] + byLayer["ensemble"])
	o.set("trace.coverage", ratio(layers, setupSpans), 1)
	o.set("trace.overhead_share", ts.setup.Seconds()/untracedSetup-1, len(spans))
	o.note("in-process set-up %.3fs against the daemon's median launch-to-ready %.3fs; %d spans", ts.setup.Seconds(), untracedSetup, len(spans))
}
