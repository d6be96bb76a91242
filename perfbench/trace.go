package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the harness
// around its call into the layer. Spans of one operation or request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced operations pay only a nil check.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// active is an open span; its zero value (from a nil Tracer) is inert.
type active struct {
	t    *Tracer
	span Span
}

// Start opens a span named name for request req under parent.
func (t *Tracer) Start(req, parent int64, name string) active {
	if t == nil {
		return active{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return active{t: t, span: Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// ID is the span's identifier, for use as a child's parent.
func (a active) ID() int64 { return a.span.ID }

// End closes the span and stores it.
func (a active) End() {
	if a.t == nil {
		return
	}
	a.span.End = int64(time.Since(a.t.epoch))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.span)
	a.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// layerTime aggregates the self time of every span with one name.
type layerTime struct {
	Count int
	Self  time.Duration
}

// MeanMs is the mean self time per span, in milliseconds.
func (l layerTime) MeanMs() float64 { return ratio(ms(l.Self), float64(l.Count)) }

// selfTimes returns, per span name, the number of spans and their summed self
// time: each span's duration minus the part of its interval that its child
// spans cover.
func selfTimes(spans []Span) map[string]layerTime {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		self := time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		lt := out[s.Name]
		lt.Count++
		lt.Self += self
		out[s.Name] = lt
	}
	return out
}

// covered measures the union of the children's intervals clipped to the
// parent's interval.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeSpans stores the spans as JSON lines at path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
