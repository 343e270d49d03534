// Package core implements the paper's primary contribution: the online disk
// I/O workload characterization service. A Collector attaches to one virtual
// disk's vSCSI fast path and maintains the full set of histograms from the
// paper — I/O length, seek distance (plus the windowed variant that
// disentangles interleaved sequential streams), outstanding I/Os, device
// latency and inter-arrival time — each broken down by all/reads/writes,
// in O(1) time and O(m) space per command (§3).
//
// The per-command path stores only what cannot be derived: every sample is
// inserted once, into its family's reads or writes histogram, and nothing
// else is counted. The class-all histograms and the command/byte counters
// are sums of those, so Snapshot computes them (all = reads + writes).
//
// Every Collector method is safe for concurrent use: OnIssue/OnComplete may
// run from several issuing goroutines while other goroutines call Snapshot,
// Enable, Disable and Reset. Histogram inserts are lock-free atomics; only
// the stream-correlated state (previous command's end block, the
// windowed-seek ring, previous arrival time) takes a short per-collector
// mutex, so the fast path stays O(1) with one uncontended lock per command.
package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// DefaultWindow is the look-behind window for the windowed seek-distance
// histogram. "The parameter N is set to 16 by default." (§3.1)
const DefaultWindow = 16

// Collector gathers online histograms for a single virtual disk. It
// implements vscsi.Observer; attach it with Disk.AddObserver.
//
// A disabled collector costs one predictable branch per command ("the
// processor's branch predictor ensures that they don't create overhead when
// turned off") and holds no histogram memory ("our histogram data structures
// are dynamically created as needed").
type Collector struct {
	vm, disk string
	window   int
	enabled  atomic.Bool
	// h is the live histogram set. It is swapped atomically by Enable
	// (nil -> fresh) and Reset (old -> fresh), so an OnIssue or Snapshot
	// that loaded the pointer keeps working against a consistent set even
	// if a Reset lands mid-command.
	h atomic.Pointer[histSet]
	// self is the collector's self-telemetry (see selfstats.go): counters
	// and a sampled ns/observe histogram that make the paper's Table 2
	// overhead a live metric. It survives Reset.
	self *selfStats
}

// histSet is the dynamically allocated state, created on first Enable. It
// holds no class-all histogram and no command or byte counter: those are
// reads + writes, which Snapshot computes.
type histSet struct {
	ioLength     family
	seekDistance family
	seekWindowed *histogram.Histogram
	outstanding  family
	latency      family
	interarrival family

	// streamMu guards the stream-correlated fields below (and only those):
	// they relate consecutive commands, so two issuing goroutines must
	// observe each other's updates in a consistent order. Histogram inserts
	// stay lock-free.
	streamMu sync.Mutex
	// lastEnd is the last logical block of the previous I/O (§3.1: "an
	// unsigned 64-bit memory location per virtual disk").
	lastEnd  uint64
	haveLast bool
	// recent is the circular array of the last-window request end blocks
	// used for the windowed seek-distance histogram.
	recent    []uint64
	recentLen int
	recentPos int
	// lastArrival is the issue time of the previous command (§3.2: "we
	// record the processor cycle counter value at the time of every
	// received I/O").
	lastArrival simclock.Time
	haveArrival bool

	errors atomic.Int64
}

// family is one metric's stored histograms, indexed by classOf: the reads
// and the writes (§3.4's breakdown). name is the un-suffixed display name
// the derived class-all snapshot carries.
type family struct {
	name string
	rw   [2]*histogram.Histogram
}

func newFamily(mk func(name string) *histogram.Histogram, name string) family {
	return family{name, [2]*histogram.Histogram{mk(name + " (Reads)"), mk(name + " (Writes)")}}
}

// snapshot copies the family into the public [All, Reads, Writes] shape.
// All is computed from the two copies just taken, so within one snapshot
// it equals reads + writes exactly — bins, Sum, Total, and Min/Max over
// whichever classes are non-empty — whatever is being inserted meanwhile.
func (f *family) snapshot() [3]*histogram.Snapshot {
	r, w := f.rw[classRead].Snapshot(), f.rw[classWrite].Snapshot()
	all := r.Clone()
	all.Name = f.name
	all.Add(w)
	return [3]*histogram.Snapshot{All: all, Reads: r, Writes: w}
}

// classOf indexes family.rw.
const (
	classRead = iota
	classWrite
)

func classOf(op scsi.OpCode) int {
	if op.IsWrite() {
		return classWrite
	}
	return classRead
}

// NewCollector creates a disabled collector for the named disk with the
// default look-behind window.
func NewCollector(vm, disk string) *Collector {
	return NewCollectorWindow(vm, disk, DefaultWindow)
}

// NewCollectorWindow creates a disabled collector with an explicit windowed
// seek-distance look-behind of n (n >= 1).
func NewCollectorWindow(vm, disk string, n int) *Collector {
	if n < 1 {
		panic("core: window must be >= 1")
	}
	return &Collector{vm: vm, disk: disk, window: n, self: newSelfStats()}
}

// VM and Disk identify the virtual disk being characterized.
func (c *Collector) VM() string   { return c.vm }
func (c *Collector) Disk() string { return c.disk }

// Window returns the windowed seek-distance look-behind size.
func (c *Collector) Window() int { return c.window }

// Enabled reports whether the service is currently recording.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// Enable turns the service on, allocating histograms on first use.
// Histograms persist across Disable/Enable cycles until Reset. Enable is
// idempotent under concurrent calls: when two goroutines race on the first
// allocation, exactly one histSet wins and the loser's is discarded, so no
// accumulated data is ever dropped by a duplicate Enable.
func (c *Collector) Enable() {
	if c.h.Load() == nil {
		c.h.CompareAndSwap(nil, newHistSet(c.window))
	}
	c.enabled.Store(true)
}

// MemoryBytes returns the heap bytes Enable allocated for this collector:
// the histogram set, its look-behind ring and every stored histogram. Zero
// until the first Enable ("dynamically created as needed").
func (c *Collector) MemoryBytes() int {
	h := c.h.Load()
	if h == nil {
		return 0
	}
	n := int(reflect.TypeOf(h).Elem().Size()) + 8*len(h.recent) + h.seekWindowed.MemoryBytes()
	for _, f := range []*family{&h.ioLength, &h.seekDistance, &h.outstanding, &h.latency, &h.interarrival} {
		n += f.rw[classRead].MemoryBytes() + f.rw[classWrite].MemoryBytes()
	}
	return n
}

// Disable stops recording without discarding accumulated data.
func (c *Collector) Disable() { c.enabled.Store(false) }

// Reset discards all accumulated data and per-stream state. The swap is
// atomic: in-flight OnIssue/OnComplete calls that already loaded the old set
// finish against it (their samples vanish with it), and snapshot readers see
// either the complete old set or the fresh one — never a half-built set.
func (c *Collector) Reset() {
	for {
		old := c.h.Load()
		if old == nil {
			return
		}
		if c.h.CompareAndSwap(old, newHistSet(c.window)) {
			return
		}
	}
}

// BreakStream forgets the stream-correlated state — the previous command's
// end block, the windowed-seek ring and the previous arrival time — without
// touching any histogram. It marks a discontinuity in the command stream: a
// virtual disk handed off between hosts (vMotion), a collector adopted by a
// new owner, or two per-host substreams being compared against one merged
// stream. The next command contributes no seek, windowed-seek or
// inter-arrival sample, exactly as a fresh collector's first command does,
// which is what makes Aggregate over per-host snapshots bin-exact against
// one collector observing the concatenated stream.
func (c *Collector) BreakStream() {
	h := c.h.Load()
	if h == nil {
		return
	}
	h.streamMu.Lock()
	h.haveLast = false
	h.recentLen = 0
	h.recentPos = 0
	h.haveArrival = false
	h.streamMu.Unlock()
}

func newHistSet(window int) *histSet {
	return &histSet{
		recent:       make([]uint64, window),
		ioLength:     newFamily(histogram.NewIOLength, "I/O Length Histogram"),
		seekDistance: newFamily(histogram.NewSeekDistance, "Seek Distance Histogram"),
		seekWindowed: histogram.NewSeekDistance("Seek Distance Histogram (Windowed)"),
		outstanding:  newFamily(histogram.NewOutstanding, "Outstanding I/Os Histogram"),
		latency:      newFamily(histogram.NewLatency, "I/O Latency Histogram"),
		interarrival: newFamily(histogram.NewInterarrival, "I/O Interarrival Histogram"),
	}
}

var (
	_ vscsi.Observer      = (*Collector)(nil)
	_ vscsi.BatchObserver = (*Collector)(nil)
)

// OnIssue records the arrival-side metrics: length, seek distance (plain and
// windowed), outstanding I/Os and inter-arrival time. Non-I/O SCSI commands
// (INQUIRY, TEST UNIT READY, …) are invisible to the workload histograms.
// Each sample goes into the command's own class only — 13 locked
// operations per command: the observation count, two adds per insert for
// the five samples, and the stream mutex's lock and unlock.
func (c *Collector) OnIssue(r *vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	cmd := r.Cmd
	if !cmd.Op.IsBlockIO() {
		return
	}
	n := c.self.observations.Add(1)
	sampled := n&selfSampleMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(1)
		return
	}
	class := classOf(cmd.Op)

	// I/O length (§3.2); its Total and Sum are also the command and byte
	// counters.
	h.ioLength.rw[class].Insert(cmd.Bytes())

	// Outstanding I/Os at arrival (§3.3).
	h.outstanding.rw[class].Insert(int64(r.OutstandingAtIssue))

	// The stream-correlated metrics relate this command to its predecessors,
	// so their state updates form one critical section; the derived samples
	// are inserted after release to keep it short. TryLock first so a
	// collision between issuing goroutines — the fast path's only blocking
	// point — shows up in the self-telemetry.
	if !h.streamMu.TryLock() {
		c.self.contended.Add(1)
		h.streamMu.Lock()
	}
	// Seek distance: first block of this I/O minus last block of the
	// previous I/O, preserved signed to expose reverse scans (§3.1).
	seek, haveSeek := int64(0), h.haveLast
	if haveSeek {
		seek = int64(cmd.LBA) - int64(h.lastEnd)
	}
	// Windowed variant: minimum-magnitude distance to any of the last N
	// I/Os, sign preserved (§3.1).
	wseek, haveWseek := int64(0), h.recentLen > 0
	for i := 0; i < h.recentLen; i++ {
		d := int64(cmd.LBA) - int64(h.recent[i])
		if i == 0 || abs64(d) < abs64(wseek) {
			wseek = d
		}
	}
	h.lastEnd = cmd.LastLBA()
	h.haveLast = true
	h.recent[h.recentPos] = cmd.LastLBA()
	h.recentPos = (h.recentPos + 1) % len(h.recent)
	if h.recentLen < len(h.recent) {
		h.recentLen++
	}
	// Inter-arrival time in microseconds (§3.2).
	inter, haveInter := int64(0), h.haveArrival
	if haveInter {
		inter = (r.IssueTime - h.lastArrival).Micros()
	}
	h.lastArrival = r.IssueTime
	h.haveArrival = true
	h.streamMu.Unlock()

	if haveSeek {
		h.seekDistance.rw[class].Insert(seek)
	}
	if haveWseek {
		h.seekWindowed.Insert(wseek)
	}
	if haveInter {
		h.interarrival.rw[class].Insert(inter)
	}

	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds())
	}
}

// batchStack is the burst size OnIssueBatch handles without heap
// allocation; larger bursts spill to a heap buffer.
const batchStack = 64

// streamSample is one command's stream-correlated samples, computed under
// the stream mutex and inserted after release.
type streamSample struct {
	seek, wseek, inter             int64
	haveSeek, haveWseek, haveInter bool
	class                          int
}

// OnIssueBatch records the arrival-side metrics for a burst of commands
// issued at one instant (vscsi.BatchObserver). It is sample-for-sample
// equivalent to calling OnIssue once per request in order — the property
// the bit-exactness tests pin — but amortizes the per-command overheads
// across the burst: the observation count is one atomic add, the observer
// dispatch is one call, and the stream mutex (the fast path's only blocking
// point) is taken once instead of once per command.
func (c *Collector) OnIssueBatch(rs []*vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	var nBlock int64
	for _, r := range rs {
		if r.Cmd.Op.IsBlockIO() {
			nBlock++
		}
	}
	if nBlock == 0 {
		return
	}
	obs := c.self.observations.Add(nBlock)
	// Time the burst when it crosses a 1-in-64 observation boundary,
	// recording the burst's mean cost per command — the same sampling
	// rate as the per-command path.
	sampled := obs>>6 != (obs-nBlock)>>6
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(nBlock)
		return
	}

	for _, r := range rs {
		if cmd := r.Cmd; cmd.Op.IsBlockIO() {
			class := classOf(cmd.Op)
			h.ioLength.rw[class].Insert(cmd.Bytes())
			h.outstanding.rw[class].Insert(int64(r.OutstandingAtIssue))
		}
	}

	// One critical section for the whole burst: compute every command's
	// stream-correlated samples in issue order, then insert after release.
	var buf [batchStack]streamSample
	samples := buf[:0]
	if nBlock > batchStack {
		samples = make([]streamSample, 0, nBlock)
	}
	if !h.streamMu.TryLock() {
		c.self.contended.Add(1)
		h.streamMu.Lock()
	}
	for _, r := range rs {
		cmd := r.Cmd
		if !cmd.Op.IsBlockIO() {
			continue
		}
		s := streamSample{class: classOf(cmd.Op)}
		if h.haveLast {
			s.haveSeek = true
			s.seek = int64(cmd.LBA) - int64(h.lastEnd)
		}
		if h.recentLen > 0 {
			s.haveWseek = true
			for i := 0; i < h.recentLen; i++ {
				d := int64(cmd.LBA) - int64(h.recent[i])
				if i == 0 || abs64(d) < abs64(s.wseek) {
					s.wseek = d
				}
			}
		}
		h.lastEnd = cmd.LastLBA()
		h.haveLast = true
		h.recent[h.recentPos] = cmd.LastLBA()
		h.recentPos = (h.recentPos + 1) % len(h.recent)
		if h.recentLen < len(h.recent) {
			h.recentLen++
		}
		if h.haveArrival {
			s.haveInter = true
			s.inter = (r.IssueTime - h.lastArrival).Micros()
		}
		h.lastArrival = r.IssueTime
		h.haveArrival = true
		samples = append(samples, s)
	}
	h.streamMu.Unlock()

	for i := range samples {
		s := &samples[i]
		if s.haveSeek {
			h.seekDistance.rw[s.class].Insert(s.seek)
		}
		if s.haveWseek {
			h.seekWindowed.Insert(s.wseek)
		}
		if s.haveInter {
			h.interarrival.rw[s.class].Insert(s.inter)
		}
	}

	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds() / nBlock)
	}
}

// OnComplete records device latency (§3.5) and error counts: 3 locked
// operations per command (the observation count and one insert).
func (c *Collector) OnComplete(r *vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	if !r.Cmd.Op.IsBlockIO() {
		return
	}
	n := c.self.observations.Add(1)
	sampled := n&selfSampleMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	h := c.h.Load()
	if h == nil {
		c.self.dropped.Add(1)
		return
	}
	if r.Status != scsi.StatusGood {
		h.errors.Add(1)
	} else {
		h.latency.rw[classOf(r.Cmd.Op)].Insert(r.Latency().Micros())
	}
	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds())
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
