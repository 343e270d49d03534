package trace

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"vscsistats/internal/ring"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/vscsi"
)

// Tracer is the one command tracer: a vscsi.Observer that keeps the newest
// completed commands, and the control-plane verbs that arrive between
// them, in one bounded ring. The O(n) space of a full trace is exactly what
// the paper's histograms avoid, so a tracer is attached only when asked
// for and must be sized. The engine records while HTTP handlers read, so
// the ring sits behind one mutex.
type Tracer struct {
	enabled atomic.Bool

	mu       sync.Mutex
	ring     *ring.Ring[entry]
	commands uint64 // commands recorded over the tracer's lifetime
	// lastMicros is the newest command's completion time: control verbs
	// happen outside virtual time, and are placed on its axis here.
	lastMicros int64
}

// entry is one retained event: a completed command (verb 0) or a control
// verb, which carries only VM, Disk and IssueMicros.
type entry struct {
	Record
	verb uint8
}

// controlVerbs names the verbs Control records, indexed by entry.verb.
var controlVerbs = [...]string{1: "enable", 2: "disable", 3: "reset", 4: "snapshot"}

// NewTracer creates a disabled tracer retaining the newest capacity
// entries; storage grows with use up to that bound.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		panic("trace: tracer capacity must be positive")
	}
	return &Tracer{ring: ring.New[entry](capacity)}
}

// Enable starts capture.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable stops capture without discarding the ring.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether the tracer is capturing.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

var _ vscsi.Observer = (*Tracer)(nil)

// OnIssue implements vscsi.Observer; tracing happens at completion, when
// both timestamps and status are known.
func (t *Tracer) OnIssue(*vscsi.Request) {}

// OnComplete captures the finished command.
func (t *Tracer) OnComplete(r *vscsi.Request) {
	if !t.enabled.Load() {
		return
	}
	e := entry{Record: FromRequest(r)}
	t.mu.Lock()
	t.ring.Push(e)
	t.commands++
	t.lastMicros = e.CompleteMicros
	t.mu.Unlock()
}

// Control records a control-plane verb ("enable", "disable", "reset" or
// "snapshot") at the newest command's virtual time; other verbs are
// ignored. Its signature matches httpstats.Options.OnControl.
func (t *Tracer) Control(verb, vm, disk string) {
	i := slices.Index(controlVerbs[:], verb)
	if i <= 0 || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.ring.Push(entry{Record: Record{VM: vm, Disk: disk, IssueMicros: t.lastMicros}, verb: uint8(i)})
	t.mu.Unlock()
}

// Total reports the number of commands captured over the tracer's
// lifetime, including those that have since been overwritten.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commands
}

// Records returns the retained commands in capture order (oldest first).
func (t *Tracer) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.ring.Len())
	t.ring.Each(func(e *entry) {
		if e.verb == 0 {
			out = append(out, e.Record)
		}
	})
	return out
}

// Reset discards the retained entries (the lifetime total is preserved).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.ring.Reset()
	t.mu.Unlock()
}

// WriteChromeTrace renders the retained entries as a Chrome trace-event
// JSON array: each command an "X" slice from issue to completion, each
// control verb a process-scoped "i" instant; each VM is a process and each
// disk a thread.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	out := make([]telemetry.ChromeEvent, 0, t.ring.Len())
	t.ring.Each(func(e *entry) {
		ce := telemetry.ChromeEvent{Process: "vm " + e.VM, Thread: "disk " + e.Disk, Cat: "io", TS: e.IssueMicros}
		if e.verb == 0 {
			ce.Name, ce.Dur = e.Op.String(), max(0, e.LatencyMicros())
			ce.Args = fmt.Sprintf(`{"seq":%d,"lba":%d,"blocks":%d,"outstanding":%d,"status":%q}`,
				e.Seq, e.LBA, e.Blocks, e.Outstanding, e.Status.String())
		} else {
			ce.Name, ce.Cat, ce.Instant = controlVerbs[e.verb], "control", "p"
		}
		out = append(out, ce)
	})
	t.mu.Unlock()
	return telemetry.WriteChromeTrace(w, out)
}

// ServeHTTP implements GET /debug/trace.
func (t *Tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.WriteChromeTrace(w)
}

// OnlyBlockIO keeps reads and writes, dropping emulated control commands.
func OnlyBlockIO(r Record) bool { return r.Op.IsBlockIO() }

// OnlyDisk keeps one virtual disk's commands.
func OnlyDisk(vm, disk string) func(Record) bool {
	return func(r Record) bool { return r.VM == vm && r.Disk == disk }
}
