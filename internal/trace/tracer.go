package trace

import (
	"vscsistats/internal/ring"
	"vscsistats/internal/vscsi"
)

// Tracer is a vscsi.Observer that captures completed commands into a
// bounded ring. A bounded buffer keeps always-on tracing at fixed memory
// cost — the O(n) space of a full trace is exactly what the paper's
// histograms avoid, so the tracer must be explicitly sized.
type Tracer struct {
	ring    *ring.Ring[Record]
	enabled bool

	// Filter, if non-nil, drops records for which it returns false.
	Filter func(Record) bool
}

// NewTracer creates a tracer retaining the most recent capacity records;
// storage grows with use up to that bound.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: tracer capacity must be positive")
	}
	return &Tracer{ring: ring.New[Record](capacity)}
}

// Enable and Disable toggle capture.
func (t *Tracer) Enable() { t.enabled = true }

// Disable stops capture without discarding the ring.
func (t *Tracer) Disable() { t.enabled = false }

// Enabled reports whether the tracer is capturing.
func (t *Tracer) Enabled() bool { return t.enabled }

// Total reports the number of records captured over the tracer's lifetime
// (including those that have since been overwritten).
func (t *Tracer) Total() uint64 { return t.ring.Total() }

var _ vscsi.Observer = (*Tracer)(nil)

// OnIssue implements vscsi.Observer; tracing happens at completion, when
// both timestamps and status are known.
func (t *Tracer) OnIssue(*vscsi.Request) {}

// OnComplete captures the finished command.
func (t *Tracer) OnComplete(r *vscsi.Request) {
	if !t.enabled {
		return
	}
	rec := FromRequest(r)
	if t.Filter != nil && !t.Filter(rec) {
		return
	}
	t.ring.Push(rec)
}

// Records returns the captured records in capture order (oldest first).
func (t *Tracer) Records() []Record { return t.ring.Last(0) }

// Reset discards captured records (the lifetime total is preserved).
func (t *Tracer) Reset() { t.ring.Reset() }

// Common filters.

// OnlyBlockIO keeps reads and writes, dropping emulated control commands.
func OnlyBlockIO(r Record) bool { return r.Op.IsBlockIO() }

// OnlyDisk keeps one virtual disk's commands.
func OnlyDisk(vm, disk string) func(Record) bool {
	return func(r Record) bool { return r.VM == vm && r.Disk == disk }
}
