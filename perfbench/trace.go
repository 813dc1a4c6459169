package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from outside the
// program. ID groups the spans of one release, request or window;
// Parent is the index of the enclosing span (-1 at the top).
type Span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Label  string `json:"label,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced run: every method is a no-op, so the timed code path carries
// no recording cost beyond a nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *Tracer {
	if !on {
		return nil
	}
	return &Tracer{t0: time.Now()}
}

// Add records a finished span and returns its index (for children).
func (t *Tracer) Add(name string, id int64, parent int, start, end time.Time, label string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Label: label,
	})
	return len(t.spans) - 1
}

// Time runs fn inside a span and returns the span index and duration.
// The duration is measured whether or not tracing is on.
func (t *Tracer) Time(name string, id int64, parent int, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.Add(name, id, parent, start, end, ""), end.Sub(start)
}

// Durations returns the durations of every span with this name, in ms.
func (t *Tracer) Durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// Write dumps every span as JSON lines.
func (t *Tracer) Write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
