package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call into a layer. Times are nanoseconds since
// the recorder's origin; parent 0 marks an op's root span.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: GA fitness spans arrive from parallel workers.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a span and returns its id. A nil recorder records
// nothing and returns 0, so untraced code paths pay one nil check.
func (r *recorder) start(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	return r.startAt(name, op, parent, time.Now())
}

// startAt opens a span that began at t.
func (r *recorder) startAt(name string, op, parent int, t time.Time) int {
	if r == nil {
		return 0
	}
	at := int64(t.Sub(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Op: op, Parent: parent, Start: at, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed wraps fn in a span.
func (r *recorder) timed(name string, op, parent int, fn func() error) error {
	id := r.start(name, op, parent)
	err := fn()
	r.end(id)
	return err
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover. It returns the spans in id
// order, and fails on a span that was never closed.
func finish(spans []span) ([]span, error) {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := append([]span(nil), spans...)
	for i := range out {
		s := &out[i]
		s.Self = s.End - s.Start - coveredNanos(s.Start, s.End, children[s.ID])
	}
	return out, nil
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// meanUS is the mean span duration in microseconds.
func (l layerStat) meanUS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return l.TotalMS * 1000 / float64(l.Calls)
}

// layers sums durations and self times by span name.
func layers(spans []span) map[string]layerStat {
	out := make(map[string]layerStat)
	for _, s := range spans {
		l := out[s.Name]
		l.Calls++
		l.TotalMS += float64(s.End-s.Start) / 1e6
		l.SelfMS += float64(s.Self) / 1e6
		out[s.Name] = l
	}
	return out
}

// residualFrac is the share of root-span (op) wall time that no layer
// span covers: 1 − Σ covered ÷ Σ op wall over every root span. With
// sequential children this equals 1 − Σ layer self time ÷ op wall.
func residualFrac(spans []span) float64 {
	var wall, self int64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.End - s.Start
			self += s.Self
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(self) / float64(wall)
}

// rootDurationsMS returns every root span's duration in milliseconds.
func rootDurationsMS(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
