package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program. Spans of one request share Req; Parent is the ID of the span
// whose call caused this one (0 for a root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Class  string        `json:"class,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, which is how untraced runs pay for no tracing.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder starts an empty recorder whose offsets count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(name, class string, req, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Class: class, Start: now})
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Time runs f inside a span and returns f's wall time.
func (r *Recorder) Time(name, class string, req, parent int, f func()) time.Duration {
	id := r.Begin(name, class, req, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.End(id)
	return d
}

// Record adds a closed root span for an interval measured elsewhere.
func (r *Recorder) Record(name, class string, req int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Req: req, Name: name, Class: class,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the recorded spans as JSON.
func (r *Recorder) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes maps each span ID to its self time: the span's duration
// minus the part of its interval that its children cover. Children
// that overlap each other (parallel calls) are counted once, and a
// child running past its parent's end is clipped to the parent.
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi time.Duration, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return total
}

// selfByName collects the self times of the spans with the given name,
// in milliseconds.
func selfByName(spans []Span, self map[int]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}
