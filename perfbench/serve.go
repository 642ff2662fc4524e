package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"climcompress/internal/serve"
)

// Serving workload constants.
const (
	// serveSeed is the program -seed of the serving workload. It stays
	// fixed so the warmed store (a full-catalog table6, ~45 s on the
	// reference host) is built once per checkout; the benchmark seed picks
	// the request sequence.
	serveSeed = 2014
	// nominalRate is the fixed rate of the nominal phase, about a quarter
	// of the daemon's capacity on the reference host: at twice the rate a
	// minute of heavy host contention left the open loop more than a
	// second behind, and at half of it the vCPUs idle between requests and
	// each request pays the hypervisor's wake-up cost.
	nominalRate = 4000.0
	// ladderRungs bounds the climb above nominalRate (eight per doubling,
	// so the top rung is 8 times the nominal rate, far above capacity).
	ladderRungs = 24
	// minRung is the fewest requests a rung sends: enough for its p99 to
	// have ten samples beyond it.
	minRung = 1000
	// p99Window is the window p99_ms is taken over: each window's 1,000
	// samples support a p99, and the median over windows keeps a short
	// stall of the shared host from moving the figure.
	p99Window = 250 * time.Millisecond
	// setups is how many daemon launches a run times for setup_s.
	setups = 3
	// bodyChecks is how many served bodies are compared with the batch
	// CLI's -verdict output.
	bodyChecks = 200
)

// serveArgs are the substrate flags shared by the daemon, its fixture and
// the batch CLI's -verdict checks.
func serveArgs(cacheDir string) []string {
	return []string{"-grid", "small", "-members", strconv.Itoa(members),
		"-seed", strconv.Itoa(serveSeed), "-cachedir", cacheDir}
}

// serveFixture returns a store warmed with every verdict of the full
// catalog, built by this checkout's climatebench on first use and reused
// by later runs of the same binary. The daemon only reads it.
func serveFixture(e *env) (string, error) {
	bin := filepath.Join(e.bin, "climatebench")
	sum, err := fileDigest(bin)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(e.cache, "serve-"+sum[:16])
	done := filepath.Join(dir, "complete")
	if _, err := os.Stat(done); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	args := append(serveArgs(filepath.Join(dir, "store")), "-workers", "2", "-q", "table6")
	if _, err := runProgram(e.ctx, bin, args...); err != nil {
		return "", fmt.Errorf("building the serving fixture: %w", err)
	}
	return dir, os.WriteFile(done, nil, 0o644)
}

// daemon is a running climatebenchd.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	setup    time.Duration // launch to -addrfile written
	setupCPU time.Duration // the daemon's CPU time when it became ready
	exited   chan error
	stderr   bytes.Buffer
}

// startDaemon launches climatebenchd over store and waits for readiness.
func startDaemon(e *env, store, addrFile string) (*daemon, error) {
	os.Remove(addrFile)
	args := append(serveArgs(store), "-workers", "2", "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-q")
	d := &daemon{exited: make(chan error, 1)}
	d.cmd = command(e.ctx, filepath.Join(e.bin, "climatebenchd"), args...)
	d.cmd.Stderr = &d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.setup = time.Since(start)
			d.addr = strings.TrimSpace(string(b))
			cpu, err := procCPU(d.cmd.Process.Pid)
			if err != nil {
				//lint:errdrop the launch already fails with err; the daemon only has to be stopped
				d.stop()
				return nil, err
			}
			d.setupCPU = cpu
			return d, nil
		}
		select {
		case err := <-d.exited:
			return nil, fmt.Errorf("climatebenchd exited before it was ready: %v: %s", err, tail(d.stderr.Bytes(), 400))
		case <-time.After(time.Millisecond):
		}
	}
}

// stop drains the daemon with SIGINT and waits for it. It returns the
// daemon's peak resident set; a non-zero exit is an error.
func (d *daemon) stop() (int64, error) {
	d.cmd.Process.Signal(syscall.SIGINT)
	err := <-d.exited
	var rss int64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss * 1024
	}
	if err != nil {
		return rss, fmt.Errorf("climatebenchd: %v: %s", err, tail(d.stderr.Bytes(), 400))
	}
	return rss, nil
}

// fetchStats reads GET /stats.
func fetchStats(addr string) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	c, err := dial(addr)
	if err != nil {
		return st, err
	}
	defer c.close()
	status, body, err := c.do(statsRequest)
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("GET /stats: status %d", status)
	}
	return st, json.Unmarshal(body, &st)
}

// loadPlan is a seed's request schedule: the nominal phase, then the
// ladder's attempts, each drawing the next slice of one Zipf sequence.
type loadPlan struct {
	pairs   []pair
	reqs    [][]byte
	seq     []int
	nominal int // requests in the nominal phase
	rates   []float64
	rungLen time.Duration
}

func newLoadPlan(seed uint64, seconds int) loadPlan {
	pairs := catalogPairs()
	p := loadPlan{pairs: pairs, rates: ladderRates(nominalRate, ladderRungs)}
	p.nominal = int(nominalRate * 0.4 * float64(seconds))
	p.rungLen = time.Duration(float64(seconds) / 40 * float64(time.Second))
	total := p.nominal
	for k := range p.rates {
		total += rungAttempts * p.rungSize(k)
	}
	p.seq = requestSequence(seed, len(pairs), total)
	p.reqs = make([][]byte, len(pairs))
	for i, pr := range pairs {
		p.reqs[i] = verdictRequest(pr)
	}
	return p
}

// rungSize is how many requests rung k sends: rungLen's worth at its
// rate, and at least minRung.
func (p loadPlan) rungSize(k int) int {
	n := int(p.rates[k] * p.rungLen.Seconds())
	if n < minRung {
		n = minRung
	}
	return n
}

// serveLoad is what the load phase measured.
type serveLoad struct {
	nominal          phaseResult
	rungs            []phaseResult // every ladder attempt, in order
	rungSeqs         [][]int       // the requests each attempt was to send
	verdicts         []rungVerdict
	best             int
	cpu              time.Duration // daemon CPU during the nominal phase
	stats0, stats1   serve.StatsResponse
	sent, mismatches int
}

// driveLoad runs the nominal phase and the ladder against addr.
func driveLoad(addr string, pid int, plan loadPlan, bs *bodies) (serveLoad, error) {
	var l serveLoad
	clients := make([]*client, connections)
	for i := range clients {
		c, err := dial(addr)
		if err != nil {
			return l, err
		}
		defer c.close()
		clients[i] = c
	}
	var mu sync.Mutex
	check := func(p int, status int, body []byte) bool {
		if status != 200 {
			return false
		}
		if !bs.check(p, body) {
			mu.Lock()
			l.mismatches++
			mu.Unlock()
			return false
		}
		return true
	}
	var err error
	if l.stats0, err = fetchStats(addr); err != nil {
		return l, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return l, err
	}
	l.nominal = runPhase(clients, plan.reqs, plan.seq[:plan.nominal], nominalRate, check)
	cpu1, err := procCPU(pid)
	if err != nil {
		return l, err
	}
	l.cpu = cpu1 - cpu0
	cursor := plan.nominal
	l.rungs, l.verdicts, l.best = climbLadder(plan.rates, func(k int, rate float64) phaseResult {
		seq := plan.seq[cursor : cursor+plan.rungSize(k)]
		cursor += len(seq)
		l.rungSeqs = append(l.rungSeqs, seq)
		return runPhase(clients, plan.reqs, seq, rate, check)
	})
	if l.stats1, err = fetchStats(addr); err != nil {
		return l, err
	}
	l.sent = len(l.nominal.samples)
	for _, r := range l.rungs {
		l.sent += len(r.samples)
	}
	return l, nil
}

// runServe measures the serving workload: setups daemon launches (the
// median CPU time to readiness is setup_s), then on the last daemon an
// open loop at nominalRate (p50_ms, p99_ms, cells_per_s, cpu_s) followed
// by the rate ladder (max_rps), then the output checks.
func runServe(e *env) (*outcome, error) {
	fixture, err := serveFixture(e)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(fixture, "store")
	plan := newLoadPlan(e.seed, e.seconds)
	o := newOutcome()
	o.note("inputs: full catalog (%d pairs), program -seed %d, Zipf(%.1f) over a seeded order, %d connections, nominal %.0f/s for %d requests, rungs of %v",
		len(plan.pairs), serveSeed, zipfExponent, connections, nominalRate, plan.nominal, plan.rungLen)
	d, setupCPU, setupWall, err := launchDaemons(e, store)
	if err != nil {
		return nil, err
	}
	o.note("daemon set-up over %d launches: median %.3fs CPU, %.3fs launch to ready", setups, median(setupCPU), median(setupWall))
	bs := newBodies(len(plan.pairs))
	load, lerr := driveLoad(d.addr, d.cmd.Process.Pid, plan, bs)
	rss, serr := d.stop()
	if lerr != nil {
		return nil, lerr
	}
	if serr != nil {
		return nil, serr
	}
	// Every request the nominal phase scheduled counts as attempted: one
	// the generator gave up on because the backlog passed maxBacklog was
	// due and never served. Ladder rungs probe past capacity by design, so
	// only their sent requests count.
	unsent := plan.nominal - len(load.nominal.samples)
	o.attempted = int64(load.sent + unsent)
	o.failed = int64(load.nominal.failures() + unsent)
	if unsent > 0 {
		o.note("the nominal phase fell more than %v behind and stopped with %d requests unsent", maxBacklog, unsent)
	}
	for _, r := range load.rungs {
		o.failed += int64(r.failures())
	}
	if load.mismatches > 0 {
		o.note("%d responses differed from the first body served for their pair", load.mismatches)
	}
	lag := load.nominal.lagMs()
	if len(lag) > 0 && quantile(lag, 0.99) > float64(lagLimit)/float64(time.Millisecond) {
		o.note("the generator fell behind in the nominal phase (lag p99 %.2f ms): the phase is invalid", quantile(lag, 0.99))
		o.failed += int64(len(load.nominal.samples))
	}
	o.failed += checkAccounting(o, plan, load)
	failedPairs, err := checkBodiesAgainstCLI(e, store, plan, bs)
	if err != nil {
		return nil, err
	}
	o.failed += failedPairs
	if o.failed > o.attempted {
		o.failed = o.attempted
	}
	reportServe(o, load, setupCPU, rss)
	return o, nil
}

// launchDaemons starts the daemon setups times, stopping all but the last,
// which it returns running. It returns each launch's CPU time to readiness
// (the setup_s samples: wall time to readiness follows the CPU time the
// hypervisor grants the two vCPUs, which drifts by tens of percent between
// minutes on the reference host) and its wall time.
func launchDaemons(e *env, store string) (d *daemon, cpu, wall []float64, err error) {
	addrFile := filepath.Join(e.work, "addr")
	for i := 0; i < setups; i++ {
		if d, err = startDaemon(e, store, addrFile); err != nil {
			return nil, nil, nil, err
		}
		cpu = append(cpu, d.setupCPU.Seconds())
		wall = append(wall, d.setup.Seconds())
		if i < setups-1 {
			if _, err := d.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return d, cpu, wall, nil
}

// checkAccounting compares the daemon's counters with the sequence's
// first-touch prediction: every pair's first request reads the store (a
// compute in the daemon's terms, or a coalesced wait when both connections
// ask for it at once), every repeat is a response-cache hit, and no
// request computes a verdict from scratch. It returns the requests to
// count as failed.
func checkAccounting(o *outcome, plan loadPlan, l serveLoad) int64 {
	var seq []int
	seq = append(seq, plan.seq[:len(l.nominal.samples)]...)
	for k, r := range l.rungs {
		seq = append(seq, l.rungSeqs[k][:len(r.samples)]...)
	}
	// Phases send their requests in schedule order but an aborted phase
	// may leave a gap; only a clean run is checked exactly.
	aborted := l.nominal.aborted
	for _, r := range l.rungs {
		aborted = aborted || r.aborted
	}
	first, repeats := touchAccounting(seq)
	d := func(a, b int64) int64 { return a - b }
	s0, s1 := l.stats0.Serve, l.stats1.Serve
	requests := d(s1.Requests, s0.Requests)
	computes := d(s1.Computes, s0.Computes)
	coalesced := d(s1.Coalesced, s0.Coalesced)
	hits := d(s1.RespCacheHits, s0.RespCacheHits)
	storeHits := d(l.stats1.Cache.Hits, l.stats0.Cache.Hits)
	misses := d(l.stats1.Cache.Misses, l.stats0.Cache.Misses)
	o.note("accounting: %d requests, %d first touches predicted, %d store reads (%d computes, %d coalesced), %d response-cache hits (%d predicted), %d store misses, %d shed",
		requests, first, storeHits, computes, coalesced, hits, repeats, misses, d(s1.Shed, s0.Shed))
	var bad []string
	if !aborted && requests != int64(len(seq)) {
		bad = append(bad, "request count")
	}
	if !aborted && (computes > int64(first) || computes+coalesced < int64(first) || hits+computes+coalesced != requests) {
		bad = append(bad, "first-touch split")
	}
	if misses != 0 || storeHits != computes || d(s1.Shed, s0.Shed) != 0 || d(s1.Errors, s0.Errors) != 0 {
		bad = append(bad, "store misses, shed or errors")
	}
	if len(bad) == 0 {
		return 0
	}
	o.note("accounting check failed: %s", strings.Join(bad, ", "))
	return int64(len(seq))
}

// checkBodiesAgainstCLI compares up to bodyChecks served bodies with
// `climatebench -verdict` on the same substrate flags, two at a time. A
// mismatch fails every request of that pair.
func checkBodiesAgainstCLI(e *env, store string, plan loadPlan, bs *bodies) (int64, error) {
	var touched []int
	for p := range plan.pairs {
		if bs.first[p].Load() != nil {
			touched = append(touched, p)
		}
	}
	picks := samplePairs(e.seed, touched, bodyChecks)
	bin := filepath.Join(e.bin, "climatebench")
	var mu sync.Mutex
	var failed int64
	var firstErr error
	sem := make(chan struct{}, connections)
	var wg sync.WaitGroup
	for _, p := range picks {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			defer func() { <-sem }()
			pr := plan.pairs[p]
			args := append(serveArgs(store), "-verdict", pr.variable+"/"+pr.variant)
			res, err := runProgram(e.ctx, bin, args...)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && e.ctx.Err() != nil {
				firstErr = err
				return
			}
			if err != nil || !bytes.Equal(res.stdout, *bs.first[p].Load()) {
				failed += bs.counts[p].Load()
			}
		}(p)
	}
	wg.Wait()
	return failed, firstErr
}

// reportServe derives the serving metrics.
func reportServe(o *outcome, l serveLoad, setupTimes []float64, rss int64) {
	lat := l.nominal.latenciesMs()
	n := len(lat)
	o.set("setup_s", median(setupTimes), len(setupTimes))
	o.set("p50_ms", quantile(lat, 0.5), n)
	tails := windowTails(l.nominal, p99Window, 0.99)
	p99 := median(tails)
	o.set("p99_ms", p99, n)
	o.set("cells_per_s", l.nominal.throughput(), n)
	o.set("cpu_s", l.cpu.Seconds(), n)
	o.set("peak_rss_mib", float64(rss)/(1<<20), 1)
	maxRPS := l.nominal.throughput()
	if l.best >= 0 {
		maxRPS = l.rungs[l.best].throughput()
	}
	o.set("max_rps", maxRPS, len(l.rungs))
	if q, ok := tailQuantile(n); ok {
		o.note("nominal phase: %d requests, p50 %.3f ms, whole-phase p%g %.3f ms; p99 over %d windows of %v: median %.3f ms, quartiles %.3f and %.3f ms",
			n, quantile(lat, 0.5), q*100, quantile(lat, q), len(tails), p99Window, p99, quantile(tails, 0.25), quantile(tails, 0.75))
	}
	if lag := l.nominal.lagMs(); len(lag) > 0 {
		o.note("generator lag (loadgen.lag_ms) on idle connections: p50 %.3f ms, p99 %.3f ms over %d sends", quantile(lag, 0.5), quantile(lag, 0.99), len(lag))
	}
	for i, r := range l.rungs {
		rl := r.latenciesMs()
		o.note("attempt %2d: %7.0f/s offered, %8.1f/s done, p99 %7.3f ms, backlog growing %v, lag p99 %.3f ms: %s",
			i, r.rate, r.throughput(), quantile(rl, 0.99), r.backlogGrowing(), quantile(r.lagMs(), 0.99), l.verdicts[i])
	}
}
