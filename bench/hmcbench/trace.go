package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op or request
// share Req; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. It records only
// while on, so a traced run can interleave traced and untraced ops.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOn(on bool) { t.on.Store(on) }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span and returns its ID, or 0 while tracing is off.
func (t *tracer) start(name, detail string, parent, req int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Detail: detail, Start: now, End: -1})
	return len(t.spans)
}

// finish closes span id (a no-op for id 0).
func (t *tracer) finish(id int) {
	if id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTime totals, per span name, the count, the inclusive time and
// the self time: a span's duration minus the part of it that its
// children cover (children may overlap, as concurrent requests do).
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := 0.0, s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalMs += (s.End - s.Start) / 1e3
		st.SelfMs += (s.End - s.Start - covered) / 1e3
		out[s.Name] = st
	}
	return out
}

// write saves the spans and their per-name self times as JSON.
func (t *tracer) write(path, workload string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, map[string]any{
		"workload": workload,
		"self":     self,
		"spans":    t.spans,
	})
}
