package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"climcompress/internal/artifact"
	"climcompress/internal/experiments"
	"climcompress/internal/grid"
	"climcompress/internal/l96"
)

// testRunner builds a small paper-shaped runner shared by the package's
// tests (one chaotic-core integration for the whole test binary).
var (
	runnerOnce sync.Once
	testR      *experiments.Runner
)

func testConfig(store *artifact.Store) experiments.Config {
	cfg := experiments.DefaultConfig(grid.Test())
	cfg.Members = 9
	cfg.L96 = l96.EnsembleConfig{
		Members: 9, Dt: 0.002, SpinupSteps: 1000,
		DivergeSteps: 6000, CalibSteps: 3000, Eps: 1e-14,
	}
	cfg.Variables = []string{"U", "SST"}
	cfg.Cache = store
	return cfg
}

func sharedRunner(t *testing.T) *experiments.Runner {
	t.Helper()
	runnerOnce.Do(func() {
		testR = experiments.NewRunner(testConfig(nil), nil)
	})
	return testR
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Runner == nil {
		cfg.Runner = experiments.NewRunner(testConfig(nil), sharedRunner(t).L96())
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVerdict(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/verdict", ContentTypeJSON, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}

func TestVerdictJSONRoundTrip(t *testing.T) {
	o := experiments.VariantOutcome{
		Rho: 0.999999, NRMSE: 1.5e-7, Enmax: 2e-6, CR: 1.68,
		RhoPass: true, RMSZPass: true, EnmaxPass: false, BiasPass: true,
		RhoMin: 0.9999985, RMSZDiffMax: 0.01, RMSZWithin: true,
		EnmaxRatio: math.NaN(), SlopeDist: 1e-9,
	}
	buf := FromOutcome("U", "fpzip-24", o).AppendJSON(nil)
	if !bytes.HasSuffix(buf, []byte("}\n")) {
		t.Fatalf("JSON verdict lacks trailing newline: %q", buf)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("rendered verdict is not valid JSON: %v\n%s", err, buf)
	}
	if m["variable"] != "U" || m["variant"] != "fpzip-24" {
		t.Fatalf("identity fields wrong: %v", m)
	}
	metrics := m["metrics"].(map[string]any)
	if metrics["enmax_ratio"] != nil {
		t.Fatalf("NaN must render as null, got %v", metrics["enmax_ratio"])
	}
	if metrics["rho"].(float64) != o.Rho {
		t.Fatalf("rho %v", metrics["rho"])
	}
	pass := m["pass"].(map[string]any)
	if pass["enmax"] != false || pass["correlation"] != true {
		t.Fatalf("pass flags wrong: %v", pass)
	}
}

func TestVerdictBinaryRoundTrip(t *testing.T) {
	o := experiments.VariantOutcome{
		Rho: 0.42, NRMSE: 1, Enmax: 2, CR: 3, AllPass: true, RMSZWithin: true,
		RhoMin: -1, RMSZDiffMax: 0.5, EnmaxRatio: math.Inf(1), SlopeDist: math.NaN(),
	}
	v := FromOutcome("SST", "grib2", o)
	buf := v.AppendBinary(nil)
	got, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	// NaN breaks == on the whole struct; compare it separately.
	if !math.IsNaN(got.Outcome.SlopeDist) {
		t.Fatalf("SlopeDist %v, want NaN", got.Outcome.SlopeDist)
	}
	got.Outcome.SlopeDist = 0
	v.Outcome.SlopeDist = 0
	if got != v {
		t.Fatalf("binary round-trip: got %+v, want %+v", got, v)
	}
	// Corruption and truncation must error, not panic.
	for _, bad := range [][]byte{nil, buf[:3], buf[:len(buf)-1], append([]byte("XXXX"), buf[4:]...)} {
		if _, err := DecodeBinary(bad); err == nil {
			t.Fatalf("corrupt frame %q decoded", bad)
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, buf := postVerdict(t, ts.URL, `{"variable":"U","variant":"fpzip-24"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
		t.Fatalf("content type %q", ct)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("bad body: %v\n%s", err, buf)
	}

	// Second identical request must be a response-cache hit with the same
	// bytes.
	_, buf2 := postVerdict(t, ts.URL, `{"variable":"U","variant":"fpzip-24"}`)
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("cached response differs:\n%s\n%s", buf, buf2)
	}
	st := s.Stats()
	if st.Serve.Computes != 1 || st.Serve.RespCacheHits != 1 {
		t.Fatalf("counters %+v", st.Serve)
	}

	// Binary format decodes to the same outcome.
	resp3, buf3 := postVerdict(t, ts.URL, `{"variable":"U","variant":"fpzip-24","format":"binary"}`)
	if ct := resp3.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary content type %q", ct)
	}
	v, err := DecodeBinary(buf3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Variable != "U" || v.Variant != "fpzip-24" || v.Outcome.CR == 0 {
		t.Fatalf("binary verdict %+v", v)
	}

	// Unknown pairs and malformed bodies are client errors.
	for body, want := range map[string]int{
		`{"variable":"NOPE","variant":"fpzip-24"}`:             http.StatusNotFound,
		`{"variable":"U","variant":"nope"}`:                    http.StatusNotFound,
		`{"variable":"U","variant":"fpzip-24","format":"xml"}`: http.StatusBadRequest,
		`{`: http.StatusBadRequest,
	} {
		if resp, buf := postVerdict(t, ts.URL, body); resp.StatusCode != want {
			t.Fatalf("body %s: status %d (%s), want %d", body, resp.StatusCode, buf, want)
		}
	}
}

// TestCoalescing is the acceptance gate: 100 concurrent identical cold
// requests produce exactly one computation and 100 identical response
// bodies. Run under -race this also proves the flight group and response
// cache are data-race free.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2, MaxQueue: 2})
	const n = 100
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/verdict", ContentTypeJSON,
				strings.NewReader(`{"variable":"SST","variant":"grib2"}`))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	st := s.Stats()
	if st.Serve.Computes != 1 {
		t.Fatalf("%d computes for %d identical requests, want exactly 1 (%+v)", st.Serve.Computes, n, st.Serve)
	}
	if st.Serve.Coalesced+st.Serve.RespCacheHits != n-1 {
		t.Fatalf("coalesced %d + cache hits %d != %d (%+v)",
			st.Serve.Coalesced, st.Serve.RespCacheHits, n-1, st.Serve)
	}
}

// TestShedding saturates admission with held compute slots and distinct
// keys (no coalescing possible) and requires 429 + Retry-After on the
// overflow, with the server intact afterwards.
func TestShedding(t *testing.T) {
	s, err := New(Config{
		Runner:      experiments.NewRunner(testConfig(nil), sharedRunner(t).L96()),
		MaxInflight: 1,
		MaxQueue:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s.computeHook = func() {
		entered <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Distinct (variable, variant) pairs → distinct flight keys.
	reqs := []string{
		`{"variable":"U","variant":"fpzip-24"}`,
		`{"variable":"U","variant":"fpzip-16"}`,
		`{"variable":"SST","variant":"isa-1"}`,
		`{"variable":"SST","variant":"isa-0.5"}`,
		`{"variable":"U","variant":"apax-2"}`,
	}
	type result struct {
		code  int
		retry string
	}
	results := make(chan result, len(reqs))
	var wg sync.WaitGroup
	launch := func(body string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/verdict", ContentTypeJSON, strings.NewReader(body))
			if err != nil {
				results <- result{code: -1}
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	// First request occupies the single inflight slot...
	launch(reqs[0])
	<-entered
	// ...the rest contend for 1 queue slot: at least 3 of the 4 must shed.
	for _, r := range reqs[1:] {
		launch(r)
	}
	sheds := 0
	for i := 0; i < len(reqs)-2; i++ {
		r := <-results
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("expected shed, got status %d", r.code)
		}
		if r.retry == "" {
			t.Fatal("shed response lacks Retry-After")
		}
		sheds++
	}
	// Unblock the held computations; the holder and the queued request
	// finish normally.
	close(release)
	go func() { // drain the second compute's hook entry
		for range entered {
		}
	}()
	wg.Wait()
	close(results)
	ok := 0
	for r := range results {
		if r.code == http.StatusOK {
			ok++
		}
	}
	close(entered)
	if ok != 2 {
		t.Fatalf("%d requests succeeded after release, want 2 (holder + queued)", ok)
	}
	st := s.Stats()
	if st.Serve.Shed != int64(sheds) || st.Serve.Shed < 3 {
		t.Fatalf("shed counter %d, observed %d", st.Serve.Shed, sheds)
	}
	if st.Serve.Queued != 0 || st.Serve.Inflight != 0 {
		t.Fatalf("gate not drained: %+v", st.Serve)
	}
}

func TestStatsEndpoint(t *testing.T) {
	store := artifact.Open(t.TempDir())
	s, ts := newTestServer(t, Config{
		Runner: experiments.NewRunner(testConfig(store), sharedRunner(t).L96()),
	})
	postVerdict(t, ts.URL, `{"variable":"U","variant":"isa-1"}`)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Serve.Requests != 1 || got.Serve.Computes != 1 {
		t.Fatalf("serve stats %+v", got.Serve)
	}
	if got.Cache.Puts == 0 {
		t.Fatalf("cache stats %+v lack the verdict put", got.Cache)
	}
	if got.Serve.Variables != 2 || got.Serve.Variants != int64(len(experiments.Variants())) {
		t.Fatalf("catalog dimensions %+v", got.Serve)
	}
	if want := s.Stats().Cache; got.Cache != want {
		t.Fatalf("stats endpoint %+v, Stats() %+v", got.Cache, want)
	}
}

func TestPreloadMakesWarmServing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	n, err := s.Preload(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("preloaded %d variables, want 2", n)
	}
	if resp, buf := postVerdict(t, ts.URL, `{"variable":"SST","variant":"apax-5"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf)
	}
	if st := s.Stats(); st.Serve.PreloadedVars != 2 {
		t.Fatalf("preload counter %+v", st.Serve)
	}
}

func TestDaemonMatchesBatchBytes(t *testing.T) {
	// The serve-smoke contract in miniature: the daemon's JSON body must
	// equal the batch renderer's bytes for the same cell.
	r := experiments.NewRunner(testConfig(nil), sharedRunner(t).L96())
	_, ts := newTestServer(t, Config{Runner: r})
	_, daemon := postVerdict(t, ts.URL, `{"variable":"U","variant":"grib2"}`)
	o, err := r.VerdictFor("U", "grib2")
	if err != nil {
		t.Fatal(err)
	}
	batch := FromOutcome("U", "grib2", o).AppendJSON(nil)
	if !bytes.Equal(daemon, batch) {
		t.Fatalf("daemon and batch bytes differ:\n%s\n%s", daemon, batch)
	}
}

func TestGateDirect(t *testing.T) {
	g := newGate(1, 1)
	if !g.acquire() {
		t.Fatal("empty gate refused")
	}
	done := make(chan bool)
	go func() { done <- g.acquire() }() // queues
	for g.queued.Load() == 0 {
	}
	if g.acquire() {
		t.Fatal("over-queue acquire admitted")
	}
	g.release()
	if !<-done {
		t.Fatal("queued acquire failed")
	}
	g.release()
	if g.queued.Load() != 0 || len(g.sem) != 0 {
		t.Fatalf("gate not drained: queued=%d inflight=%d", g.queued.Load(), len(g.sem))
	}
}

func TestNewRejectsMissingRunner(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil runner")
	}
}

// nopBody is a resettable request body, so the measured request carries
// no per-op reader allocation of its own.
type nopBody struct{ *bytes.Reader }

func (nopBody) Close() error { return nil }

// nopResponseWriter swallows the response, so a measurement covers the
// handler and not an HTTP transport.
type nopResponseWriter struct {
	h    http.Header
	code int
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponseWriter) WriteHeader(code int)        { w.code = code }

// TestWarmVerdictSteadyStateAllocs pins the warm /verdict hot path — a
// response-cache hit, with no admission and no singleflight — at a fixed
// allocation budget per request through Handler, in both encodings.
func TestWarmVerdictSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	body := []byte(`{"variable":"U","variant":"tsblob"}`)
	for _, accept := range []string{ContentTypeJSON, ContentTypeBinary} {
		rd := bytes.NewReader(body)
		req, err := http.NewRequest("POST", "/verdict", nopBody{rd})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		w := &nopResponseWriter{h: make(http.Header)}
		// The first request computes the verdict and fills the response cache.
		h.ServeHTTP(w, req)
		if allocs := testing.AllocsPerRun(10, func() {
			rd.Reset(body)
			h.ServeHTTP(w, req)
		}); allocs > 10 {
			t.Errorf("%s: warm verdict allocates %.1f/op in steady state, want ≤ 10", accept, allocs)
		}
		if w.code != 0 && w.code != http.StatusOK {
			t.Fatalf("%s: warm verdict returned %d", accept, w.code)
		}
		if got := w.h.Get("Content-Type"); got != accept {
			t.Fatalf("served %q, want %q", got, accept)
		}
	}
	if st := s.Stats(); st.Serve.Computes != 1 {
		t.Fatalf("warm requests recomputed: %+v", st.Serve)
	}
}

func BenchmarkWarmVerdictJSON(b *testing.B) {
	r := experiments.NewRunner(testConfig(nil), nil)
	s, err := New(Config{Runner: r})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{"variable":"U","variant":"fpzip-24"}`
	if resp, err := http.Post(ts.URL+"/verdict", ContentTypeJSON, strings.NewReader(body)); err != nil {
		b.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		//lint:errdrop read side; warm-up response already drained
		resp.Body.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/verdict", ContentTypeJSON, strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		//lint:errdrop read side; bench response already drained
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Serve.Computes != 1 {
		b.Fatalf("warm bench recomputed: %+v", st.Serve)
	}
}

func ExampleVerdict_AppendJSON() {
	o := experiments.VariantOutcome{
		Rho: 0.5, NRMSE: 0.25, Enmax: 0.125, CR: 2,
		RhoMin: 0.5, RMSZDiffMax: 1, EnmaxRatio: 4, SlopeDist: 8,
	}
	fmt.Print(string(FromOutcome("V", "grib2", o).AppendJSON(nil)))
	// Output:
	// {"variable":"V","variant":"grib2","pass":{"correlation":false,"rmsz":false,"enmax":false,"bias":false,"all":false},"metrics":{"rho":0.5,"nrmse":0.25,"enmax":0.125,"rho_min":0.5,"rmsz_diff_max":1,"rmsz_within":false,"enmax_ratio":4,"slope_dist":8},"cr":2}
}
