package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a call into a layer, made by the
// benchmark, or a server-side interval read back from a job view. The
// spans of one request share Run, the request's canonical key.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Run    string `json:"run,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span whose call has not returned yet.
type openSpan struct {
	t     *tracer
	s     span
	begin time.Time
}

// start opens a span; end closes and records it.
func (t *tracer) start(name, run string, parent int64) openSpan {
	now := time.Now()
	if t == nil {
		return openSpan{begin: now}
	}
	return openSpan{t: t, begin: now, s: span{
		ID: t.ids.Add(1), Parent: parent, Name: name, Run: run, Start: int64(now.Sub(t.t0)),
	}}
}

// id is the span's identifier, the parent of spans opened under it.
func (o openSpan) id() int64 { return o.s.ID }

// end records the span and returns its duration, which is measured
// whether or not a tracer is recording.
func (o openSpan) end() time.Duration {
	now := time.Now()
	if o.t != nil {
		o.s.End = int64(now.Sub(o.t.t0))
		o.t.add(o.s)
	}
	return now.Sub(o.begin)
}

// record adds a span measured elsewhere, from wall-clock timestamps, and
// returns its id.
func (t *tracer) record(name, run string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	s := span{ID: t.ids.Add(1), Parent: parent, Name: name, Run: run,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.add(s)
	return s.ID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50MS     float64 `json:"p50_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
	SelfTotMS float64 `json:"self_total_ms"`
}

// layerSummary is one layer's share of the traced self time.
type layerSummary struct {
	Layer     string  `json:"layer"`
	SelfTotMS float64 `json:"self_total_ms"`
	Share     float64 `json:"share"`
}

// summarize aggregates spans by name and by layer (the name's prefix
// before the first dot).
func summarize(spans []span) ([]spanSummary, []layerSummary) {
	self := selfTimes(spans)
	type acc struct{ durs, selfs []float64 }
	byName := map[string]*acc{}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		st := float64(self[s.ID])
		a.durs = append(a.durs, float64(s.dur()))
		a.selfs = append(a.selfs, st)
		layer, _, _ := strings.Cut(s.Name, ".")
		byLayer[layer] += st
		total += st
	}
	var names []spanSummary
	for name, a := range byName {
		names = append(names, spanSummary{
			Name: name, Count: len(a.durs),
			P50MS: quantile(a.durs, 0.5) / 1e6, SelfP50MS: quantile(a.selfs, 0.5) / 1e6,
			SelfTotMS: sum(a.selfs) / 1e6,
		})
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Name < names[j].Name })
	var layers []layerSummary
	for layer, st := range byLayer {
		layers = append(layers, layerSummary{Layer: layer, SelfTotMS: st / 1e6, Share: ratio(st, total)})
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].SelfTotMS > layers[j].SelfTotMS })
	return names, layers
}

// subtree returns the spans named root and all their descendants, or
// every span when none is named root.
func subtree(spans []span, root string) []span {
	in := map[int64]bool{}
	for _, s := range spans {
		if s.Name == root {
			in[s.ID] = true
		}
	}
	if len(in) == 0 {
		return spans
	}
	// Children are recorded before their parents end, so resolve
	// membership to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, s := range spans {
			if !in[s.ID] && in[s.Parent] {
				in[s.ID], changed = true, true
			}
		}
	}
	var out []span
	for _, s := range spans {
		if in[s.ID] {
			out = append(out, s)
		}
	}
	return out
}
