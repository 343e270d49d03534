package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"vscsistats/internal/ring"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
)

// EventKind classifies a lifecycle event.
type EventKind uint8

// Lifecycle event kinds: the two fast-path events plus the four control
// verbs of the characterization service.
const (
	EventIssue EventKind = iota
	EventComplete
	EventEnable
	EventDisable
	EventReset
	EventSnapshot
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventIssue:
		return "issue"
	case EventComplete:
		return "complete"
	case EventEnable:
		return "enable"
	case EventDisable:
		return "disable"
	case EventReset:
		return "reset"
	case EventSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one entry in the lifecycle ring. Fast-path events carry a full
// trace.Record; control events carry only the identity and a virtual
// timestamp interpolated from the most recent command seen.
type Event struct {
	Kind          EventKind
	VM, Disk      string
	VirtualMicros int64
	// Rec is populated for EventIssue and EventComplete only. For
	// EventIssue the record is taken mid-flight, so CompleteMicros is 0.
	Rec trace.Record
}

// LifecycleTracer keeps the last N issue/complete/enable/disable/reset/
// snapshot events in a bounded ring and exports them as Chrome
// trace-event JSON (load the output in chrome://tracing or Perfetto).
//
// It keeps the same ring.Ring as internal/trace.Tracer (a
// single-goroutine buffer for offline traces) behind a mutex, so every
// world of a parallel simulation can feed one tracer while HTTP handlers
// drain it. It is an opt-in vscsi.Observer: attach it with
// Disk.AddObserver alongside the collector.
type LifecycleTracer struct {
	mu   sync.Mutex
	ring *ring.Ring[Event]
	// lastVirtual tracks the most recent virtual timestamp seen on the
	// fast path, so control events — which happen outside virtual time —
	// can be placed on the same axis.
	lastVirtual atomic.Int64
}

// NewLifecycleTracer returns a tracer retaining the last capacity events
// (minimum 1).
func NewLifecycleTracer(capacity int) *LifecycleTracer {
	return &LifecycleTracer{ring: ring.New[Event](capacity)}
}

// OnIssue records a command issue. Part of the vscsi.Observer surface.
func (t *LifecycleTracer) OnIssue(r *vscsi.Request) {
	ts := r.IssueTime.Micros()
	t.lastVirtual.Store(ts)
	t.push(Event{Kind: EventIssue, VM: r.VM, Disk: r.Disk, VirtualMicros: ts, Rec: trace.FromRequest(r)})
}

// OnComplete records a command completion.
func (t *LifecycleTracer) OnComplete(r *vscsi.Request) {
	ts := r.CompleteTime.Micros()
	t.lastVirtual.Store(ts)
	t.push(Event{Kind: EventComplete, VM: r.VM, Disk: r.Disk, VirtualMicros: ts, Rec: trace.FromRequest(r)})
}

// Control records a service control event (enable/disable/reset/snapshot).
// Unknown kinds are ignored.
func (t *LifecycleTracer) Control(kind EventKind, vm, disk string) {
	switch kind {
	case EventEnable, EventDisable, EventReset, EventSnapshot:
		t.push(Event{Kind: kind, VM: vm, Disk: disk, VirtualMicros: t.lastVirtual.Load()})
	}
}

// ControlVerb records a control event named by its HTTP control-plane verb
// ("enable", "disable", "reset" or "snapshot"); unknown verbs are ignored.
// Its signature matches httpstats.Options.OnControl.
func (t *LifecycleTracer) ControlVerb(verb, vm, disk string) {
	switch verb {
	case "enable":
		t.Control(EventEnable, vm, disk)
	case "disable":
		t.Control(EventDisable, vm, disk)
	case "reset":
		t.Control(EventReset, vm, disk)
	case "snapshot":
		t.Control(EventSnapshot, vm, disk)
	}
}

func (t *LifecycleTracer) push(e Event) {
	t.mu.Lock()
	t.ring.Push(e)
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *LifecycleTracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Last(0)
}

// Len is the number of retained events; Cap the ring capacity; Total the
// lifetime event count including overwritten entries.
func (t *LifecycleTracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Cap returns the ring capacity.
func (t *LifecycleTracer) Cap() int { return t.ring.Cap() }

// Total returns the lifetime event count, including overwritten entries.
func (t *LifecycleTracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.ring.Total())
}

// WriteChromeTrace renders the retained events as a Chrome trace-event
// JSON array. Completions become "X" (complete) slices spanning
// issue→completion; issues and control verbs become "i" instants; each VM
// is a process and each disk a thread.
func (t *LifecycleTracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := make([]ChromeEvent, 0, len(events))
	for _, e := range events {
		ce := ChromeEvent{Process: "vm " + e.VM, Thread: "disk " + e.Disk, Cat: "io", TS: e.VirtualMicros}
		switch e.Kind {
		case EventComplete:
			ce.Name = e.Rec.Op.String()
			ce.TS = e.Rec.IssueMicros
			ce.Dur = max(0, e.Rec.LatencyMicros())
			ce.Args = fmt.Sprintf(`{"seq":%d,"lba":%d,"blocks":%d,"outstanding":%d,"status":%q}`,
				e.Rec.Seq, e.Rec.LBA, e.Rec.Blocks, e.Rec.Outstanding, e.Rec.Status.String())
		case EventIssue:
			ce.Name = "issue " + e.Rec.Op.String()
			ce.Instant = "t"
			ce.Args = fmt.Sprintf(`{"seq":%d,"lba":%d,"blocks":%d}`, e.Rec.Seq, e.Rec.LBA, e.Rec.Blocks)
		default:
			ce.Name, ce.Cat, ce.Instant = e.Kind.String(), "control", "p"
		}
		out = append(out, ce)
	}
	return WriteChromeTrace(w, out)
}

// ServeHTTP implements GET /debug/trace.
func (t *LifecycleTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.WriteChromeTrace(w)
}
