package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark around
// the call (nothing inside the program is instrumented for it). Parent is
// the ID of the span that caused it, 0 for a root; spans of one operation
// share Op, and set-up or probe spans outside any operation carry Op -1.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since the tracer was created
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID for end and for children.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// add records a span whose endpoints were measured elsewhere (the solver
// phases obs.Trace timed), as a child of parent.
func (t *tracer) add(name string, parent, op int, begin time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := begin.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
}

// probe times f under a root span outside any operation.
func (t *tracer) probe(name string, f func()) time.Duration {
	id := t.start(name, 0, -1)
	begin := time.Now()
	f()
	d := time.Since(begin)
	t.end(id)
	return d
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
