package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval recorded around a call into a layer. Spans of one
// job or batch share Trace; Parent is the enclosing span's ID (0 = root).
type span struct {
	Trace  uint64  `json:"trace"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"` // since the tracer's base
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends; a nil tracer records
// nothing, so untraced windows pay one nil check per call site.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// newID returns a fresh span or trace identifier (0 when t is nil).
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span and returns its ID.
func (t *tracer) record(traceID, parent uint64, name string, start, end time.Time) uint64 {
	id := t.newID()
	t.recordWithID(traceID, id, parent, name, start, end)
	return id
}

// recordWithID stores a span under an ID reserved earlier with newID, so
// children can name it as their parent before it ends.
func (t *tracer) recordWithID(traceID, id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Trace: traceID, ID: id, Parent: parent, Name: name,
		Start: us(start.Sub(t.base)), End: us(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (overlapping
// children are counted once).
func selfTimes(spans []span) []spanStat {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*spanStat{}
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMs += dur / 1e3
		st.SelfMs += (dur - covered(s, children[s.ID])) / 1e3
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total := 0.0
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}

// flush writes every span as JSON lines to path and prints the per-name
// self-time summary to w. Called once, after the traced window.
func (t *tracer) flush(path string, w io.Writer) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "-- spans (%d recorded)\n", len(spans))
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "span %-22s n=%-7d total_ms=%-12.3f self_ms=%.3f\n", st.Name, st.Count, st.TotalMs, st.SelfMs)
	}
	return nil
}
