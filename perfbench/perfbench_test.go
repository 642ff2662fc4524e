package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"climcompress/internal/varcatalog"
)

func TestTailQuantileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true}, // 10 samples beyond p99.9
		{9999, 0.99, true},   // only 9 beyond p99.9
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && !supports(c.n, q) {
			t.Errorf("supports(%d, %v) = false for the rule's own answer", c.n, q)
		}
	}
	if supports(999, 0.99) {
		t.Error("999 samples leave only 9 beyond p99")
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestVariableSubsetsAreSeeded(t *testing.T) {
	m := mix{threeD: 9, twoD: 10, fill: 1}
	a, err := pickVariables(7, "verify", m)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := pickVariables(7, "verify", m)
	c, _ := pickVariables(8, "verify", m)
	d, _ := pickVariables(7, "errors", m)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different subsets")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(a, d) {
		t.Error("another seed or stream gave the same subset")
	}
	specs := map[string]varcatalog.Spec{}
	for _, s := range varcatalog.Default() {
		specs[s.Name] = s
	}
	var three, two, fill int
	for _, n := range a {
		s := specs[n]
		switch {
		case s.HasFill:
			fill++
		case s.ThreeD:
			three++
		default:
			two++
		}
	}
	if three != m.threeD || two != m.twoD || fill != m.fill {
		t.Errorf("mix = %d 3-D, %d 2-D, %d fill; want %+v", three, two, fill, m)
	}
	if _, err := pickVariables(1, "x", mix{fill: 99}); err == nil {
		t.Error("a mix larger than the catalog was accepted")
	}
}

func TestRequestSequenceIsSeededZipf(t *testing.T) {
	a := requestSequence(3, 1700, 20000)
	if !reflect.DeepEqual(a, requestSequence(3, 1700, 20000)) {
		t.Fatal("the same seed gave a different sequence")
	}
	if reflect.DeepEqual(a, requestSequence(4, 1700, 20000)) {
		t.Fatal("another seed gave the same sequence")
	}
	counts := map[int]int{}
	for _, p := range a {
		if p < 0 || p >= 1700 {
			t.Fatalf("pair %d out of range", p)
		}
		counts[p]++
	}
	// Zipf(1.1): the hottest pair draws about 1/H of the traffic, with
	// H = sum of k^-1.1 over 1700 ranks (about 5.8), so roughly 17%.
	hot := 0
	for _, n := range counts {
		if n > hot {
			hot = n
		}
	}
	if share := float64(hot) / float64(len(a)); share < 0.14 || share > 0.21 {
		t.Errorf("hottest pair share %.3f, want about 0.17", share)
	}
	// Another seed puts a different pair on top.
	b := requestSequence(4, 1700, 20000)
	if top(counts) == top(countOf(b)) {
		t.Error("two seeds share their hottest pair")
	}
}

func countOf(seq []int) map[int]int {
	m := map[int]int{}
	for _, p := range seq {
		m[p]++
	}
	return m
}

func top(m map[int]int) int {
	best, n := -1, -1
	for p, c := range m {
		if c > n || (c == n && p < best) {
			best, n = p, c
		}
	}
	return best
}

func TestFirstTouchAccounting(t *testing.T) {
	store, resp := touchAccounting([]int{5, 5, 2, 5, 9, 2, 2})
	if store != 3 || resp != 4 {
		t.Errorf("touchAccounting = %d store, %d response hits; want 3, 4", store, resp)
	}
	seq := requestSequence(1, 1700, 5000)
	store, resp = touchAccounting(seq)
	if store != len(countOf(seq)) || store+resp != len(seq) {
		t.Errorf("store %d + resp %d over %d requests, %d distinct", store, resp, len(seq), len(countOf(seq)))
	}
	picks := samplePairs(1, seq, 200)
	if len(picks) != 200 {
		t.Fatalf("sampled %d pairs, want 200", len(picks))
	}
	seen := map[int]bool{}
	for _, p := range picks {
		if seen[p] || countOf(seq)[p] == 0 {
			t.Fatalf("pair %d sampled twice or never requested", p)
		}
		seen[p] = true
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10 * ms},
		// Two parallel children overlap on [3,4); a third runs past the
		// parent's end, so only [8,10) of it counts.
		{ID: 2, Parent: 1, Name: "model.a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "model.b", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Name: "decode.c", Start: 8 * ms, End: 12 * ms},
		{ID: 5, Parent: 3, Name: "metrics.d", Start: 4 * ms, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 3 * ms, 2: 3 * ms, 3: 2 * ms, 4: 4 * ms, 5: 1 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	layers := layerSelf(spans)
	if layers["model"] != 5*ms || layers["run"] != 3*ms || layers["metrics"] != ms {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestTailTime(t *testing.T) {
	s := time.Second
	pool := span{Start: 0, End: 10 * s}
	units := []span{{Start: 0, End: 4 * s}, {Start: 0, End: 6 * s}, {Start: 4 * s, End: 10 * s}}
	// Both lanes are busy until 6s; one idles from then to the end.
	if got := tailTime(units, pool, 2); got != 4*s {
		t.Errorf("tail with 2 lanes = %v, want 4s", got)
	}
	if got := tailTime(units[:1], span{Start: 0, End: 4 * s}, 1); got != 0 {
		t.Errorf("tail with 1 busy lane = %v, want 0", got)
	}
}

// phaseAt fabricates a rung whose every request took lat and was sent on
// time.
func phaseAt(rate float64, n int, lat time.Duration) phaseResult {
	p := phaseResult{rate: rate}
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		p.samples = append(p.samples, sample{latency: lat, idle: true, ok: true, done: at + lat, lag: 10 * time.Microsecond})
	}
	return p
}

func TestLadderStopsAtFirstRungThatNeverPasses(t *testing.T) {
	rates := ladderRates(1000, 16)
	capacity := 2500.0
	var tried []float64
	run := func(k int, rate float64) phaseResult {
		tried = append(tried, rate)
		if rate > capacity {
			return phaseAt(rate, 1000, 50*time.Millisecond)
		}
		return phaseAt(rate, 1000, time.Millisecond)
	}
	attempts, verdicts, best := climbLadder(rates, run)
	if best < 0 || attempts[best].rate > capacity {
		t.Fatalf("best rung %d (%v)", best, attempts)
	}
	if next := rates[len(rates)-1]; attempts[best].rate == next {
		t.Fatal("climbed past capacity")
	}
	// The first rung above capacity is tried rungAttempts times, then the
	// climb stops.
	last := tried[len(tried)-1]
	if last <= capacity || tried[len(tried)-2] != last || len(verdicts) != len(tried) {
		t.Errorf("tried %v", tried)
	}
	for _, v := range verdicts[len(verdicts)-rungAttempts:] {
		if v != rungFail {
			t.Errorf("verdict %v above capacity", v)
		}
	}
}

func TestLadderRetriesATransientFailure(t *testing.T) {
	rates := ladderRates(1000, 4)
	calls := 0
	_, verdicts, best := climbLadder(rates, func(k int, rate float64) phaseResult {
		calls++
		if calls == 2 { // the second rung's first attempt hits a stall
			return phaseAt(rate, 1000, 80*time.Millisecond)
		}
		return phaseAt(rate, 1000, time.Millisecond)
	})
	if best != len(verdicts)-1 || len(verdicts) != len(rates)+1 {
		t.Errorf("verdicts %v, best %d: a single transient failure ended the climb", verdicts, best)
	}
}

func TestLadderStopsWhenTheGeneratorFallsBehind(t *testing.T) {
	rates := ladderRates(1000, 8)
	_, verdicts, best := climbLadder(rates, func(k int, rate float64) phaseResult {
		p := phaseAt(rate, 1000, time.Millisecond)
		if k >= 2 {
			for i := range p.samples {
				p.samples[i].lag = 2 * lagLimit
			}
		}
		return p
	})
	if best != 1 || verdicts[len(verdicts)-1] != rungInvalid {
		t.Errorf("verdicts %v, best %d: an invalid rung must end the climb without counting", verdicts, best)
	}
}

func TestBacklogGrowth(t *testing.T) {
	p := phaseAt(4000, 2000, time.Millisecond)
	if p.backlogGrowing() {
		t.Error("steady phase reported a growing backlog")
	}
	for i := range p.samples {
		p.samples[i].dispatch = time.Duration(i) * 5 * time.Microsecond // 10ms late by the end
	}
	if p.backlogGrowing() {
		t.Error("a backlog of 10ms, under the latency limit, counted as growing")
	}
	for i := range p.samples {
		p.samples[i].dispatch = time.Duration(i) * 25 * time.Microsecond // 50ms late by the end
	}
	if !p.backlogGrowing() {
		t.Error("sends drifting 50ms late did not count as a growing backlog")
	}
}

func TestWindowTails(t *testing.T) {
	p := phaseAt(2000, 12500, time.Millisecond)
	for i := 1000; i < 1050; i++ { // one 50-request stall in the third window
		p.samples[i].latency = 40 * time.Millisecond
	}
	tails := windowTails(p, 500*time.Millisecond, 0.99)
	// 12 full windows of 1,000; the partial thirteenth is dropped.
	if len(tails) != 12 || tails[0] != 1 || tails[11] != 40 {
		t.Errorf("windowTails = %v", tails)
	}
	if got := windowTails(p, 100*time.Millisecond, 0.99); len(got) != 0 {
		t.Errorf("windows of 200 samples cannot support a p99, got %v", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRunPhaseAgainstAServer drives the open loop over two connections to
// a real HTTP server: every request is sent and answered, the first-body
// check holds across connections, and a server that changes a pair's
// bytes is caught.
func TestRunPhaseAgainstAServer(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct{ Variable, Variant string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body := req.Variable + "/" + req.Variant
		if req.Variable == "FLIP" && calls.Add(1) > 1 {
			body += "!"
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		io.WriteString(w, body)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	pairs := []pair{{"U", "fpzip-24"}, {"Z3", "tsblob"}, {"FLIP", "apax-2"}}
	reqs := make([][]byte, len(pairs))
	for i, p := range pairs {
		reqs[i] = verdictRequest(p)
	}
	var clients []*client
	for i := 0; i < 2; i++ {
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		clients = append(clients, c)
	}
	bs := newBodies(len(pairs))
	check := func(p, status int, body []byte) bool { return status == 200 && bs.check(p, body) }

	seq := make([]int, 400)
	for i := range seq {
		seq[i] = i % 2
	}
	res := runPhase(clients, reqs, seq, 4000, check)
	if len(res.samples) != len(seq) || res.failures() != 0 || res.aborted {
		t.Fatalf("%d of %d sent, %d failed, aborted %v", len(res.samples), len(seq), res.failures(), res.aborted)
	}
	if got := string(*bs.first[0].Load()); got != "U/fpzip-24" {
		t.Errorf("first body %q", got)
	}
	if n := bs.counts[0].Load() + bs.counts[1].Load(); n != int64(len(seq)) {
		t.Errorf("counted %d bodies, want %d", n, len(seq))
	}

	flip := runPhase(clients, reqs, []int{2, 2, 2}, 1000, check)
	if flip.failures() != 2 {
		t.Errorf("a pair whose bytes changed failed %d times, want 2", flip.failures())
	}
}
