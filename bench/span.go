package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanID names a recorded span; 0 is "no span" (tracing off, or the parent
// of the run's root).
type spanID int32

// span is one call from the benchmark into a layer's public functions:
// name, start, end, and the span that caused it. N counts the work items
// the call covered (commands, frames, records), so ratios are taken where
// the work happens. Spans live in memory until the run ends.
type span struct {
	ID     spanID
	Parent spanID
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
	Lane   int // Chrome-trace thread lane: the worker that made the call
	N      int64
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer records spans from the benchmark's own files; nothing inside the
// program under test is instrumented. A nil *tracer and a paused tracer
// both record nothing, so the untraced run executes the same workload code.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active reports whether begin would record.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(name string, parent spanID, lane int) spanID {
	if !t.active() {
		return 0
	}
	return t.record(name, parent, lane)
}

// record is begin without the pause check: the run's root span opens before
// the workload switches spans on.
func (t *tracer) record(name string, parent spanID, lane int) spanID {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := spanID(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1, Lane: lane})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id spanID, n int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
	t.mu.Unlock()
}

// finished returns a copy of every completed span.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanIndex answers what the per-layer rows ask of a finished trace: which
// spans a given span caused.
type spanIndex map[spanID][]span

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{}
	for _, s := range spans {
		ix[s.Parent] = append(ix[s.Parent], s)
	}
	return ix
}

// under sums the duration and work count of the spans named name that were
// caused, directly or through other spans, by root.
func (ix spanIndex) under(root spanID, name string) (ns float64, n int64, count int) {
	for _, c := range ix[root] {
		if c.Name == name {
			ns += c.dur()
			n += c.N
			count++
		}
		cns, cn, cc := ix.under(c.ID, name)
		ns, n, count = ns+cns, n+cn, count+cc
	}
	return
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format;
// chrome://tracing and ui.perfetto.dev both load the file as is.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every finished span as one JSON document. Each
// event's args carry the span's id, its parent's id and its work count, so
// the causal tree survives the viewer's own nesting-by-time heuristics.
func (t *tracer) writeChromeTrace(path string) error {
	spans := t.finished()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "n": s.N},
		})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode chrome trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("chrome trace dir: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}
