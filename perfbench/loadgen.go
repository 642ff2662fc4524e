package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one keep-alive HTTP/1.1 connection. It speaks just enough of
// the protocol for the daemon's fixed-length responses, so the generator
// spends little CPU on the two-core host it shares with the daemon.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.redial()
}

func (c *client) redial() error {
	if c.conn != nil {
		//lint:errdrop the connection is being replaced after a failure or a server close; nothing written is pending
		c.conn.Close()
	}
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 16<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		//lint:errdrop every response was read in full before the client is closed
		c.conn.Close()
	}
}

// do sends one prepared request and reads the response. The returned body
// is valid until the next call.
func (c *client) do(req []byte) (status int, body []byte, err error) {
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length, closing := -1, false
	for {
		h, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		k, v, _ := bytes.Cut(h, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Connection")) && bytes.EqualFold(v, []byte("close")):
			closing = true
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			return 0, nil, errors.New("unexpected chunked response")
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := readFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	if closing {
		err = c.redial()
	}
	return status, c.body, err
}

func readFull(br *bufio.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := br.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func verdictRequest(p pair) []byte {
	body := fmt.Sprintf(`{"variable":%q,"variant":%q}`, p.variable, p.variant)
	return []byte(fmt.Sprintf("POST /verdict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}

var statsRequest = []byte("GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")

// connections is the generator's connection count: two, one per core of
// the reference host, and never more than this host's cores, so the
// generator never needs more threads than exist.
var connections = min(2, runtime.NumCPU())

// bodies remembers the first response body per pair and checks every
// later one against it.
type bodies struct {
	first  []atomic.Pointer[[]byte]
	counts []atomic.Int64
}

func newBodies(npairs int) *bodies {
	return &bodies{first: make([]atomic.Pointer[[]byte], npairs), counts: make([]atomic.Int64, npairs)}
}

// check records b as pair p's body, reporting whether it matches the
// first body seen for p.
func (bs *bodies) check(p int, b []byte) bool {
	bs.counts[p].Add(1)
	if prev := bs.first[p].Load(); prev != nil {
		return bytes.Equal(*prev, b)
	}
	cp := append([]byte(nil), b...)
	if bs.first[p].CompareAndSwap(nil, &cp) {
		return true
	}
	return bytes.Equal(*bs.first[p].Load(), b)
}

// sample is one request's timing.
type sample struct {
	latency  time.Duration // due time to response complete
	dispatch time.Duration // due time to send
	lag      time.Duration // generator lateness: send after due on an idle connection
	idle     bool          // the connection was free before the request was due
	ok       bool
	done     time.Duration // completion, relative to the phase start
}

// phaseResult summarizes one open-loop phase at a fixed rate.
type phaseResult struct {
	rate    float64
	samples []sample // in schedule order; only the sent ones
	aborted bool     // stopped early: the backlog passed maxBacklog
}

// maxBacklog aborts a phase whose requests are sent this late: the rate
// is far beyond capacity and the rest of the phase measures nothing new.
const maxBacklog = time.Second

// runPhase sends seq[i] at start + i/rate over the clients (an open loop:
// a slow response delays later sends, and their latency counts from when
// they were due). check validates each body.
func runPhase(clients []*client, reqs [][]byte, seq []int, rate float64, check func(p int, status int, body []byte) bool) phaseResult {
	n := len(seq)
	samples := make([]sample, n)
	sent := make([]bool, n)
	var next atomic.Int64
	var abort atomic.Bool
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			preciseTimers()
			for !abort.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				now := time.Since(start)
				idle := now < due
				if idle {
					sleepFor(due - now)
				}
				send := time.Since(start)
				if send-due > maxBacklog {
					abort.Store(true)
					return
				}
				status, body, err := c.do(reqs[seq[i]])
				ok := err == nil && check(seq[i], status, body)
				if err != nil {
					// The request already counts as failed; if the new
					// connection cannot be made, the next request fails too.
					//lint:errdrop a failed redial surfaces as the next request's error
					c.redial()
				}
				done := time.Since(start)
				s := sample{latency: done - due, dispatch: send - due, idle: idle, ok: ok, done: done}
				if idle {
					s.lag = send - due
				}
				samples[i], sent[i] = s, true
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{rate: rate, aborted: abort.Load()}
	for i := range samples {
		if sent[i] {
			res.samples = append(res.samples, samples[i])
		}
	}
	return res
}

// failures counts requests that failed: transport errors, non-200
// statuses and body mismatches.
func (p phaseResult) failures() int {
	f := 0
	for _, s := range p.samples {
		if !s.ok {
			f++
		}
	}
	return f
}

func (p phaseResult) latenciesMs() []float64 {
	ds := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		ds[i] = s.latency
	}
	return durationsMs(ds)
}

// lagMs returns the generator's own lateness on idle connections, sorted.
func (p phaseResult) lagMs() []float64 {
	var ds []time.Duration
	for _, s := range p.samples {
		if s.idle {
			ds = append(ds, s.lag)
		}
	}
	return durationsMs(ds)
}

// throughput is completed requests per second of the phase.
func (p phaseResult) throughput() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	var last time.Duration
	for _, s := range p.samples {
		if s.done > last {
			last = s.done
		}
	}
	return float64(len(p.samples)) / last.Seconds()
}

// backlogGrowing reports whether requests were sent later and later over
// the phase: the median dispatch delay of its last quarter exceeds that
// of its first quarter by more than backlogSlack.
func (p phaseResult) backlogGrowing() bool {
	n := len(p.samples)
	if n < 8 {
		return p.aborted
	}
	q := n / 4
	first, last := make([]float64, q), make([]float64, q)
	for i := 0; i < q; i++ {
		first[i] = p.samples[i].dispatch.Seconds()
		last[i] = p.samples[n-q+i].dispatch.Seconds()
	}
	return p.aborted || median(last)-median(first) > backlogSlack.Seconds()
}

const (
	// latencyLimit is the p99 a ladder rung must meet.
	latencyLimit = 20 * time.Millisecond
	// backlogSlack is how much later the last quarter of a rung may be
	// sent than its first before the backlog counts as growing: the
	// latency limit itself. A stall of the shared host leaves a backlog of
	// a few milliseconds that drains; a rung beyond capacity falls behind
	// by tens of milliseconds within its half second.
	backlogSlack = latencyLimit
	// lagLimit is the p99 of generator lateness beyond which a phase is
	// invalid: the generator, not the daemon, fell behind.
	lagLimit = 5 * time.Millisecond
)

// rungVerdict classifies a ladder rung.
type rungVerdict int

const (
	rungPass    rungVerdict = iota
	rungFail                // p99 over the limit, a growing backlog, or failed requests
	rungInvalid             // the generator fell behind; the rung says nothing about the daemon
)

func (v rungVerdict) String() string {
	return [...]string{"pass", "fail", "invalid"}[v]
}

// judgeRung applies the ladder's pass rule to one phase.
func judgeRung(p phaseResult) rungVerdict {
	lat := p.latenciesMs()
	if len(lat) == 0 || p.failures() > 0 || p.backlogGrowing() {
		return rungFail
	}
	q, ok := tailQuantile(len(lat))
	if !ok || q > 0.99 {
		q = 0.99
	}
	if quantile(lat, q) > float64(latencyLimit)/float64(time.Millisecond) {
		return rungFail
	}
	if lag := p.lagMs(); len(lag) > 0 && quantile(lag, 0.99) > float64(lagLimit)/float64(time.Millisecond) {
		return rungInvalid
	}
	return rungPass
}

// ladderRates is the fixed geometric ladder above the nominal rate: eight
// rungs per doubling.
func ladderRates(base float64, rungs int) []float64 {
	out := make([]float64, rungs)
	for k := range out {
		out[k] = base * math.Exp2(float64(k+1)/8)
	}
	return out
}

// rungAttempts is how often a rung may be tried before the climb ends: a
// stall of the shared host can sink one short rung, but rarely three.
const rungAttempts = 3

// climbLadder runs the rungs in order, each up to rungAttempts times until
// it passes, and stops at the first rung that never passes: a higher rate
// cannot be sustained when a lower one was not. It returns every attempt
// made and the index into attempts of the highest passing rung's passing
// attempt (-1 if none passed).
func climbLadder(rates []float64, run func(k int, rate float64) phaseResult) (attempts []phaseResult, verdicts []rungVerdict, best int) {
	best = -1
	for k, r := range rates {
		passed := false
		for a := 0; a < rungAttempts && !passed; a++ {
			p := run(k, r)
			v := judgeRung(p)
			attempts, verdicts = append(attempts, p), append(verdicts, v)
			if v == rungPass {
				passed = true
				best = len(attempts) - 1
			}
		}
		if !passed {
			break
		}
	}
	return attempts, verdicts, best
}

// windowTails splits a phase into windows of the given length by schedule
// position and returns each window's q-quantile latency (ms), sorted;
// windows too small to support q under the percentile rule are skipped.
func windowTails(p phaseResult, window time.Duration, q float64) []float64 {
	per := int(p.rate * window.Seconds())
	if per < 1 {
		per = 1
	}
	var vals []float64
	for lo := 0; lo+per <= len(p.samples); lo += per {
		ds := make([]time.Duration, per)
		for i := range ds {
			ds[i] = p.samples[lo+i].latency
		}
		ms := durationsMs(ds)
		if supports(len(ms), q) {
			vals = append(vals, quantile(ms, q))
		}
	}
	sort.Float64s(vals)
	return vals
}

// preciseTimers sets the calling OS thread's timer slack to 1 ns, so a
// nanosleep on it wakes within microseconds of its deadline.
func preciseTimers() {
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
}

// sleepFor blocks the calling OS thread with nanosleep. time.Sleep rounds
// waits under a millisecond up to the runtime poller's millisecond tick,
// which at thousands of requests per second would be lateness of the generator,
// not of the daemon. Callers lock their goroutine to its thread.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
