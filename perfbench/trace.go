package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's epoch. Parent 0 marks a root.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before the
// first dot ("model.field" belongs to "model").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; write emits them once, at exit.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, epoch: time.Now()}
}

// open is a started span; end records it.
type open struct {
	t     *tracer
	id    int64
	par   int64
	name  string
	start time.Duration
}

// start opens a span under parent (0 for a root). A nil tracer yields a
// no-op span, so untraced code paths can share the call sites.
func (t *tracer) start(name string, parent int64) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &open{t: t, id: id, par: parent, name: name, start: time.Since(t.epoch)}
}

// ID returns the span's identifier for use as a parent (0 for a no-op).
func (o *open) ID() int64 {
	if o == nil {
		return 0
	}
	return o.id
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	end := time.Since(o.t.epoch)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, span{ID: o.id, Parent: o.par, Run: o.t.run, Name: o.name, Start: o.start, End: end})
	o.t.mu.Unlock()
	return end - o.start
}

// snapshot returns the recorded spans ordered by start.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (parallel workers) and may outlive the parent; only the union of their
// intervals, clipped to the parent's, is subtracted.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of the
// spans' intervals.
func covered(lo, hi time.Duration, spans []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range spans {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
