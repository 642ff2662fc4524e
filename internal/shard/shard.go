// Package shard turns the experiment pipeline into a multi-process fleet.
//
// The paper's methodology is embarrassingly parallel across the
// member × variable × variant work-unit space, and the content-addressed
// artifact store (internal/artifact) already gives N processes a safe
// shared substrate: puts are atomic (temp + rename), corrupt or partial
// reads degrade to misses, and every expensive intermediate is keyed by a
// digest of everything that influences it. This package adds the three
// missing pieces:
//
//   - a deterministic partitioner (Partition) that splits the unit list
//     into cost-balanced shards, so N processes given the same units agree
//     on who owns what without talking to each other;
//   - a claim protocol built purely from artifact-store records: a lease is
//     an exclusive record (Store.PutExclusive — atomic hard link, exactly
//     one winner across processes) keyed on the unit digest, kept fresh by
//     mtime touches while the unit computes, and presumed dead — stealable —
//     once its mtime ages past the TTL;
//   - a work-stealing scheduler (Run): a shard first drains its own
//     partition, then scans the other shards' partitions for units that are
//     neither done nor freshly leased and computes those too, so a finished
//     shard converts idle time into stolen work and a crashed shard's units
//     are picked up after its leases expire.
//
// Completion is also a record: a small "done" artifact per unit, written
// after the unit's results are in the store. The merge step (rendering
// tables and figures from the shared cache) needs no communication at all —
// once every done record exists, a warm single-process run over the same
// store reproduces the output byte-for-byte.
//
// The protocol is safe but intentionally not serializable: if a lease
// holder stalls longer than the TTL without touching its lease, a stealer
// may recompute the same unit. That is harmless by construction — unit
// results are content-addressed and byte-identical, so the second Put
// rewrites the same bytes — and the done/claimed accounting in Result is
// per-shard, so tests can still assert that no double compute occurred
// when every process is healthy.
package shard

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"climcompress/internal/artifact"
)

// Unit is one claimable piece of work: a stable name, the digest of
// everything that determines its outputs (the coordination key leases and
// done records derive from), a relative cost estimate for partition
// balancing, and the computation itself. Run must be idempotent and persist
// its results through the shared artifact store.
type Unit struct {
	Name string
	Key  artifact.ID
	Cost float64
	Run  func() error
}

// Partition deterministically assigns the units to n shards, balancing
// summed cost by greedy longest-processing-time assignment over a stable
// order (cost descending, name ascending, index ascending). Every process
// given the same unit list computes the same partition. The returned outer
// slice has length n; inner slices hold indices into units.
func Partition(units []Unit, n int) [][]int {
	if n < 1 {
		n = 1
	}
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ua, ub := units[order[a]], units[order[b]]
		if ua.Cost != ub.Cost {
			return ua.Cost > ub.Cost
		}
		if ua.Name != ub.Name {
			return ua.Name < ub.Name
		}
		return order[a] < order[b]
	})
	parts := make([][]int, n)
	load := make([]float64, n)
	for _, idx := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		parts[best] = append(parts[best], idx)
		cost := units[idx].Cost
		if cost <= 0 {
			cost = 1
		}
		load[best] += cost
	}
	return parts
}

// Options configures one shard of a run.
type Options struct {
	// Store is the shared artifact store; it must be enabled whenever
	// Shards > 1 (leases live in it).
	Store *artifact.Store
	// Self and Shards identify this shard: Self ∈ [0, Shards).
	Self, Shards int
	// TTL is the lease expiry: a lease whose mtime is older than TTL is
	// presumed dead and may be stolen. Leases are touched every TTL/3 while
	// their unit computes, so TTL only needs to exceed a few touch periods,
	// not the unit's runtime. Default 2 minutes.
	TTL time.Duration
	// Poll is the sleep between scans when every remaining unit is freshly
	// leased by another shard. Default TTL/10, clamped to [25ms, 2s].
	Poll time.Duration
	// Owner tags this shard's leases and done records (default host:pid).
	Owner string
	// Logf, when set, receives progress lines (stolen units, broken
	// leases, waits).
	Logf func(format string, args ...any)
}

// Result summarizes what one shard did.
type Result struct {
	// Computed lists the names of units this shard ran, in completion
	// order.
	Computed []string
	// Skipped counts units found already done on first visit (warm
	// records from an earlier run).
	Skipped int
	// Stolen counts computed units that were outside this shard's own
	// partition.
	Stolen int
	// Expired counts stale leases this shard broke.
	Expired int
	// Waits counts poll sleeps spent blocked on other shards' fresh
	// leases.
	Waits int
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Key derivation: the lease and done records of a unit live beside the
// unit's own artifacts, keyed off its digest. The kinds partition the key
// space, so they can never alias a payload record.
func leaseID(u Unit) artifact.ID {
	return artifact.NewKey("shard-lease").Str(string(u.Key)).ID()
}

// DoneID returns the completion-record key for a unit digest. Exposed so
// callers (and tests) can probe run completeness without a scheduler.
func DoneID(key artifact.ID) artifact.ID {
	return artifact.NewKey("shard-done").Str(string(key)).ID()
}

// ownerPayload encodes the lease/done payload: owner tag plus unit name,
// for post-mortem inspection of a shared cache.
func ownerPayload(owner, name string) []byte {
	var enc artifact.Enc
	enc.Str(owner).Str(name)
	return enc.Bytes()
}

// Run executes the shard's slice of the unit space, then steals. It
// returns when every unit is done (or locally failed) across the whole
// run. Unit errors do not abort the scan — every other unit is still
// attempted, matching the pipeline's forEachVar semantics — and the first
// error is returned at the end.
func Run(units []Unit, opt Options) (Result, error) {
	var res Result
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	if opt.Self < 0 || opt.Self >= opt.Shards {
		return res, fmt.Errorf("shard: self %d out of range [0,%d)", opt.Self, opt.Shards)
	}
	if !opt.Store.Enabled() {
		if opt.Shards > 1 {
			return res, errors.New("shard: a shared artifact store is required to coordinate multiple shards")
		}
		// Degenerate single-shard run without a store: no leases, no done
		// records, just compute everything.
		var firstErr error
		for _, u := range units {
			if err := u.Run(); err != nil && firstErr == nil {
				firstErr = err
			} else if err == nil {
				res.Computed = append(res.Computed, u.Name)
			}
		}
		return res, firstErr
	}
	if opt.TTL <= 0 {
		opt.TTL = 2 * time.Minute
	}
	if opt.Poll <= 0 {
		opt.Poll = opt.TTL / 10
	}
	if opt.Poll < 25*time.Millisecond {
		opt.Poll = 25 * time.Millisecond
	}
	if opt.Poll > 2*time.Second {
		opt.Poll = 2 * time.Second
	}
	if opt.Owner == "" {
		host, _ := os.Hostname()
		opt.Owner = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	parts := Partition(units, opt.Shards)
	s := &scheduler{units: units, opt: &opt, res: &res,
		settled: make([]bool, len(units))}

	// Pass 1: drain the home partition.
	for _, idx := range parts[opt.Self] {
		s.try(idx, false)
	}
	// Pass 2: steal. Scan the other shards' partitions starting at the
	// next shard (so finished shards fan out over different victims), then
	// re-scan everything until all units are settled. A unit is settled
	// once its done record exists, or it failed locally.
	for {
		progressed := false
		for k := 1; k < opt.Shards; k++ {
			victim := (opt.Self + k) % opt.Shards
			for _, idx := range parts[victim] {
				if s.try(idx, true) {
					progressed = true
				}
			}
		}
		// Home partition again: a unit stolen from us by a shard that then
		// died must be reclaimed here after its lease expires.
		for _, idx := range parts[opt.Self] {
			if s.try(idx, false) {
				progressed = true
			}
		}
		if s.allSettled() {
			break
		}
		if !progressed {
			res.Waits++
			time.Sleep(opt.Poll)
		}
	}
	return res, s.firstErr
}

// scheduler carries one Run's mutable state.
type scheduler struct {
	units    []Unit
	opt      *Options
	res      *Result
	settled  []bool // done record seen, or failed locally
	firstErr error
}

func (s *scheduler) allSettled() bool {
	for _, ok := range s.settled {
		if !ok {
			return false
		}
	}
	return true
}

// try advances one unit: skip if settled or done, claim (breaking an
// expired lease if needed), compute, publish the done record, release the
// lease. Reports whether it made progress (computed the unit or observed it
// newly done).
func (s *scheduler) try(idx int, stealing bool) bool {
	if s.settled[idx] {
		return false
	}
	u := s.units[idx]
	store := s.opt.Store
	if _, ok := store.Get(DoneID(u.Key)); ok {
		s.settled[idx] = true
		s.res.Skipped++
		return true
	}
	if !s.claim(u) {
		return false
	}
	lease := leaseID(u)
	// A peer may have finished the unit, published its done record and
	// released its lease between the check above and our claim. The done
	// record is written before the lease is removed, so it is visible now.
	if _, ok := store.Get(DoneID(u.Key)); ok {
		store.Remove(lease)
		s.settled[idx] = true
		s.res.Skipped++
		return true
	}
	// Keep the lease fresh while the unit computes, so the TTL bounds
	// crash detection latency rather than unit runtime.
	stopTouch := make(chan struct{})
	touchDone := make(chan struct{})
	go func() {
		defer close(touchDone)
		t := time.NewTicker(s.opt.TTL / 3)
		defer t.Stop()
		for {
			select {
			case <-stopTouch:
				return
			case <-t.C:
				store.Touch(lease)
			}
		}
	}()
	err := u.Run()
	close(stopTouch)
	<-touchDone
	if err != nil {
		// Release so another shard may retry; remember the failure locally
		// so this shard terminates even if every retry fails too.
		store.Remove(lease)
		s.settled[idx] = true
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("shard %d/%d: unit %s: %w", s.opt.Self, s.opt.Shards, u.Name, err)
		}
		s.opt.logf("shard %d/%d: unit %s failed: %v", s.opt.Self, s.opt.Shards, u.Name, err)
		return false
	}
	store.Put(DoneID(u.Key), ownerPayload(s.opt.Owner, u.Name))
	store.Remove(lease)
	s.settled[idx] = true
	s.res.Computed = append(s.res.Computed, u.Name)
	if stealing {
		s.res.Stolen++
		s.opt.logf("shard %d/%d: stole unit %s", s.opt.Self, s.opt.Shards, u.Name)
	}
	return true
}

// claim takes the unit's lease: first by exclusive put, then — if the
// standing lease has aged past the TTL — by breaking it and claiming again.
// The break window is racy by design (two stealers can both remove and one
// claims; in the worst interleaving both compute), which is safe because
// unit results are content-addressed: see the package comment.
func (s *scheduler) claim(u Unit) bool {
	store := s.opt.Store
	lease := leaseID(u)
	payload := ownerPayload(s.opt.Owner, u.Name)
	if store.PutExclusive(lease, payload) {
		return true
	}
	mt, ok := store.Mtime(lease)
	if !ok {
		// Lease vanished between the failed claim and the stat (released
		// or broken elsewhere); retry once, next scan picks it up if lost.
		return store.PutExclusive(lease, payload)
	}
	//lint:nondet lease aging is wall-clock by design and never influences results
	if time.Since(mt) <= s.opt.TTL {
		return false
	}
	store.Remove(lease)
	s.res.Expired++
	s.opt.logf("shard %d/%d: broke expired lease for %s", s.opt.Self, s.opt.Shards, u.Name)
	return store.PutExclusive(lease, payload)
}

// OwnerOf reports which shard published a unit's done record (empty name
// check: ok is false when the unit has no done record or the record is
// malformed). The merge step uses it to attribute units to shards without
// any channel back from the children.
func OwnerOf(store *artifact.Store, u Unit) (string, bool) {
	payload, ok := store.Get(DoneID(u.Key))
	if !ok {
		return "", false
	}
	dec := artifact.NewDec(payload)
	owner := dec.Str()
	dec.Str() // unit name, for post-mortem inspection only
	if dec.Close() != nil {
		return "", false
	}
	return owner, true
}

// summaryID keys a shard's run summary by its owner tag.
func summaryID(owner string) artifact.ID {
	return artifact.NewKey("shard-summary").Str(owner).ID()
}

// PutSummary persists a shard's Result under its owner tag so the merge
// step can render a run manifest from the store alone. A restarted shard
// overwrites its previous incarnation's summary; done records carry the
// authoritative per-unit attribution either way.
func PutSummary(store *artifact.Store, owner string, res Result) {
	var enc artifact.Enc
	enc.Int(len(res.Computed)).Int(res.Skipped).Int(res.Stolen).Int(res.Expired).Int(res.Waits)
	store.Put(summaryID(owner), enc.Bytes())
}

// Summary is the decoded form of a shard's persisted run summary.
type Summary struct {
	Computed, Skipped, Stolen, Expired, Waits int
}

// LoadSummary reads the summary a shard persisted with PutSummary.
func LoadSummary(store *artifact.Store, owner string) (Summary, bool) {
	payload, ok := store.Get(summaryID(owner))
	if !ok {
		return Summary{}, false
	}
	dec := artifact.NewDec(payload)
	sum := Summary{
		Computed: dec.Int(), Skipped: dec.Int(),
		Stolen: dec.Int(), Expired: dec.Int(), Waits: dec.Int(),
	}
	if dec.Close() != nil {
		return Summary{}, false
	}
	return sum, true
}

// Done reports how many of the units already have completion records in
// the store — the supervisor's progress probe and the merge precondition.
func Done(store *artifact.Store, units []Unit) int {
	n := 0
	for _, u := range units {
		if _, ok := store.Get(DoneID(u.Key)); ok {
			n++
		}
	}
	return n
}
