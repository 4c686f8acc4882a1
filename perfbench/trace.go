package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch. Spans of one request or one
// figure pass share Req, the ID of the span that started it.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps every finished span in memory until the run ends. A nil
// *Tracer records nothing, which is how untraced runs and segments
// call the same code. Names are interned so the stored spans hold no
// pointers, and the garbage collector never scans them.
type Tracer struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	recs  []spanRec
	names []string
	index map[string]uint32
}

// spanRec is a finished span as stored, its name an index into names.
type spanRec struct {
	id, parent, req, start, end int64
	name                        uint32
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now(), index: make(map[string]uint32)} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *Tracer
	s Span
}

// Begin starts a span. A parent of 0 makes a root span, whose Req is
// its own ID unless req says otherwise.
func (t *Tracer) Begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	id := t.next.Add(1)
	if req == 0 {
		req = id
	}
	return openSpan{t: t, s: Span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))}}
}

// ID is the span's identifier, 0 when tracing is off.
func (o openSpan) ID() int64 { return o.s.ID }

// End finishes the span under its begin name, or under name if one is
// given (a server span learns whether it was a cache hit only at the
// end).
func (o openSpan) End(name ...string) {
	if o.t == nil {
		return
	}
	end := int64(time.Since(o.t.epoch))
	if len(name) > 0 {
		o.s.Name = name[0]
	}
	t := o.t
	t.mu.Lock()
	n, ok := t.index[o.s.Name]
	if !ok {
		n = uint32(len(t.names))
		t.names = append(t.names, o.s.Name)
		t.index[o.s.Name] = n
	}
	t.recs = append(t.recs, spanRec{id: o.s.ID, parent: o.s.Parent, req: o.s.Req, start: o.s.Start, end: end, name: n})
	t.mu.Unlock()
}

// Spans returns the finished spans in the order they ended.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.recs))
	for i, r := range t.recs {
		out[i] = Span{ID: r.id, Parent: r.parent, Req: r.req, Name: t.names[r.name], Start: r.start, End: r.end}
	}
	return out
}

// selfTimes returns each span's self time, keyed by span ID: its
// duration minus the part of its interval that its child spans cover.
// Overlapping children (parallel work) are merged first, so covered
// time is never counted twice, and a child running past its parent is
// clipped to the parent's interval.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Span
	Self int64 `json:"self_ns"`
}

// writeSpans writes one JSON object per span, self time included, to
// path, creating its directory.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	self := selfTimes(spans)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(spanRecord{Span: s, Self: int64(self[s.ID])}); err != nil {
			f.Close()
			return fmt.Errorf("writing spans to %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}
