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
// Enable, Disable and Reset. One per-collector mutex guards everything a
// command touches — the stream-correlated state (previous command's end
// block, the windowed-seek ring, previous arrival time), the slab of
// histogram cells, the error count and the observation counter — so an
// observation is one critical section of plain adds, and a snapshot, which
// copies the slab under the same lock, is a consistent cut. Only the
// enabled flag ahead of the lock and the self-telemetry histogram behind it
// are atomics.
package core

import (
	"math"
	"reflect"
	"slices"
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

	// mu guards h, everything h points to, and observations. Nothing
	// allocates or blocks while it is held.
	mu sync.Mutex
	// h is the histogram set: nil until the first Enable, published once
	// and from then on cleared in place by Reset.
	h *histSet
	// observations counts block-I/O fast-path calls (OnIssue and
	// OnComplete each count one) while the service was enabled. It
	// survives Reset.
	observations int64

	// self is the rest of the collector's self-telemetry (see
	// selfstats.go), which makes the paper's Table 2 overhead a live
	// metric. It survives Reset.
	self *selfStats
}

// histSet is the dynamically allocated state, created on first Enable. It
// holds no class-all histogram and no command or byte counter: those are
// reads + writes, which Snapshot computes.
type histSet struct {
	// The stream-correlated fields relate consecutive commands. lastEnd is
	// the last logical block of the previous I/O (§3.1: "an unsigned 64-bit
	// memory location per virtual disk").
	lastEnd  uint64
	haveLast bool
	// lastArrival is the issue time of the previous command (§3.2: "we
	// record the processor cycle counter value at the time of every
	// received I/O").
	lastArrival simclock.Time
	haveArrival bool
	// recent is the circular array of the last-window request end blocks
	// used for the windowed seek-distance histogram.
	recent    []uint64
	recentLen int
	recentPos int

	errors int64

	// cells is the slab: every stored histogram's count cells and sum
	// cell, back to back in slab order. min and max are their observed
	// extrema.
	cells    []int64
	min, max [numStored]int64
}

// The stored histograms, in slab order: reads then writes (classOf) for each
// family (§3.4's breakdown), then the windowed seek distance.
const (
	hIOLength = 2 * iota
	hSeekDistance
	hOutstanding
	hLatency
	hInterarrival
	hSeekWindowed
	numStored = hSeekWindowed + 1
)

// families lists each metric with a read/write breakdown, its layout and
// its un-suffixed display name, in slab order.
var families = [...]struct {
	metric Metric
	name   string
	layout *histogram.Layout
}{
	hIOLength / 2:     {MetricIOLength, "I/O Length Histogram", histogram.IOLengthLayout},
	hSeekDistance / 2: {MetricSeekDistance, "Seek Distance Histogram", histogram.SeekDistanceLayout},
	hOutstanding / 2:  {MetricOutstanding, "Outstanding I/Os Histogram", histogram.OutstandingLayout},
	hLatency / 2:      {MetricLatency, "I/O Latency Histogram", histogram.LatencyLayout},
	hInterarrival / 2: {MetricInterarrival, "I/O Interarrival Histogram", histogram.InterarrivalLayout},
}

// numHistograms is how many histograms a snapshot holds: all, reads and
// writes of each family, then the windowed seek distance.
const numHistograms = 3*len(families) + 1

// HistCells locates one histogram in a snapshot's cell vector: Layout's
// NumBins counts from Off, then its sum, total, min and max — the cells
// histogram.Layout.View reads.
type HistCells struct {
	Metric Metric
	Class  Class
	Name   string
	Layout *histogram.Layout
	Off    int
}

// Of returns the histogram's own cells out of a snapshot's.
func (h *HistCells) Of(cells []int64) []int64 {
	return cells[h.Off : h.Off+h.Layout.NumBins()+4]
}

// cellTable is the one description of a snapshot's cell vector, in the order
// the fleet payload carries histograms; snapshotWords is the vector's length.
var cellTable, snapshotWords = func() (t [numHistograms]HistCells, words int) {
	for f, fam := range families {
		for cl, suffix := range [...]string{All: "", Reads: " (Reads)", Writes: " (Writes)"} {
			t[3*f+cl] = HistCells{Metric: fam.metric, Class: Class(cl), Name: fam.name + suffix, Layout: fam.layout}
		}
	}
	t[numHistograms-1] = HistCells{Metric: MetricSeekWindowed, Class: All,
		Name: "Seek Distance Histogram (Windowed)", Layout: histogram.SeekDistanceLayout}
	for i := range t {
		t[i].Off = words
		words += t[i].Layout.NumBins() + 4
	}
	return t, words
}()

// CellTable returns a copy of the cell table. Only the fleet payload codec,
// which reads and writes snapshots' cells directly, needs it from outside
// the package.
func CellTable() []HistCells { return slices.Clone(cellTable[:]) }

// stored describes one stored histogram: the snapshot histogram it fills, the
// class-all one it is also summed into (none for the windowed seek
// distance), its layout (kept here too, one load closer to insert) and where
// in the slab its cells are — the layout's bins from off, then the sum.
type stored struct {
	hist, all *HistCells
	layout    *histogram.Layout
	off, sum  int
}

// slab describes every stored histogram; slabWords is the slab's length.
var slab, slabWords = func() (s [numStored]stored, words int) {
	for i := range families {
		all := &cellTable[3*i+int(All)]
		s[2*i+classRead] = stored{hist: &cellTable[3*i+int(Reads)], all: all}
		s[2*i+classWrite] = stored{hist: &cellTable[3*i+int(Writes)], all: all}
	}
	s[hSeekWindowed].hist = &cellTable[numHistograms-1]
	for i := range s {
		s[i].layout = s[i].hist.Layout
		s[i].off = words
		s[i].sum = words + s[i].layout.NumBins()
		words = s[i].sum + 1
	}
	return s, words
}()

// insert counts one sample into stored histogram id. The caller holds the
// collector's lock.
func (h *histSet) insert(id int, v int64) {
	sp := &slab[id]
	bin := sp.layout.Bin(v)
	h.cells[sp.off+bin]++
	h.cells[sp.sum] += v
	if v < h.min[id] {
		h.min[id] = v
	}
	if v > h.max[id] {
		h.max[id] = v
	}
}

// clear empties every histogram and forgets the stream, leaving the set as
// newHistSet made it.
func (h *histSet) clear() {
	h.breakStream()
	h.errors = 0
	clear(h.cells)
	for i := range h.min {
		h.min[i], h.max[i] = math.MaxInt64, math.MinInt64
	}
}

func (h *histSet) breakStream() {
	h.haveLast = false
	h.recentLen = 0
	h.recentPos = 0
	h.haveArrival = false
}

// classOf orders a family's two stored histograms.
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

// Enabled reports whether the service is currently recording.
func (c *Collector) Enabled() bool { return c.enabled.Load() }

// Enable turns the service on, allocating histograms on first use.
// Histograms persist across Disable/Enable cycles until Reset. The set is
// published under the lock and before the enabled flag, so when several
// goroutines race on the first Enable exactly one set wins, and a command
// that sees the flag always finds a set.
func (c *Collector) Enable() {
	c.mu.Lock()
	have := c.h != nil
	c.mu.Unlock()
	if !have {
		fresh := newHistSet(c.window) // allocated outside the lock
		c.mu.Lock()
		if c.h == nil {
			c.h = fresh
		}
		c.mu.Unlock()
	}
	c.enabled.Store(true)
}

// MemoryBytes returns the heap bytes Enable allocated for this collector:
// the histogram set, its look-behind ring and its slab of cells. Zero until
// the first Enable ("dynamically created as needed"). The bin layouts are
// shared by every collector and not counted.
func (c *Collector) MemoryBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.h == nil {
		return 0
	}
	return int(reflect.TypeOf(c.h).Elem().Size()) + 8*(len(c.h.recent)+len(c.h.cells))
}

// Disable stops recording without discarding accumulated data.
func (c *Collector) Disable() { c.enabled.Store(false) }

// Reset discards all accumulated data and per-stream state. It clears the
// set under the lock, so commands land wholly before it (and vanish) or
// wholly after, and snapshot readers see either the complete old set or the
// fresh one — never a half-cleared set.
func (c *Collector) Reset() {
	c.mu.Lock()
	if c.h != nil {
		c.h.clear()
	}
	c.mu.Unlock()
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
	c.mu.Lock()
	if c.h != nil {
		c.h.breakStream()
	}
	c.mu.Unlock()
}

func newHistSet(window int) *histSet {
	h := &histSet{recent: make([]uint64, window), cells: make([]int64, slabWords)}
	h.clear()
	return h
}

var (
	_ vscsi.Observer      = (*Collector)(nil)
	_ vscsi.BatchObserver = (*Collector)(nil)
)

// lock takes the collector's mutex. TryLock first so a collision between
// issuing goroutines — the fast path's only blocking point — shows up in
// the self-telemetry.
func (c *Collector) lock() {
	if !c.mu.TryLock() {
		c.self.contended.Add(1)
		c.mu.Lock()
	}
}

// OnIssue records the arrival-side metrics: length, seek distance (plain and
// windowed), outstanding I/Os and inter-arrival time. Non-I/O SCSI commands
// (INQUIRY, TEST UNIT READY, …) are invisible to the workload histograms.
// Each sample goes into the command's own class only, as plain adds inside
// one critical section — 2 locked operations per command, the mutex's lock
// and unlock.
func (c *Collector) OnIssue(r *vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	if !r.Cmd.Op.IsBlockIO() {
		return
	}
	c.lock()
	c.observations++
	sampled := c.observations&selfSampleMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	c.h.issue(r)
	c.mu.Unlock()
	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds())
	}
}

// issue records one command's arrival-side samples and advances the stream
// state. The caller holds the collector's lock.
func (h *histSet) issue(r *vscsi.Request) {
	cmd := r.Cmd
	class := classOf(cmd.Op)

	// I/O length (§3.2); its Total and Sum are also the command and byte
	// counters.
	h.insert(hIOLength+class, cmd.Bytes())

	// Outstanding I/Os at arrival (§3.3).
	h.insert(hOutstanding+class, int64(r.OutstandingAtIssue))

	// Seek distance: first block of this I/O minus last block of the
	// previous I/O, preserved signed to expose reverse scans (§3.1).
	if h.haveLast {
		h.insert(hSeekDistance+class, int64(cmd.LBA)-int64(h.lastEnd))
	}
	// Windowed variant: minimum-magnitude distance to any of the last N
	// I/Os, sign preserved (§3.1).
	if h.recentLen > 0 {
		h.insert(hSeekWindowed, nearest(cmd.LBA, h.recent[:h.recentLen]))
	}
	end := cmd.LastLBA()
	h.lastEnd = end
	h.haveLast = true
	h.recent[h.recentPos] = end
	if h.recentPos++; h.recentPos == len(h.recent) {
		h.recentPos = 0
	}
	if h.recentLen < len(h.recent) {
		h.recentLen++
	}

	// Inter-arrival time in microseconds (§3.2).
	if h.haveArrival {
		h.insert(hInterarrival+class, (r.IssueTime - h.lastArrival).Micros())
	}
	h.lastArrival = r.IssueTime
	h.haveArrival = true
}

// nearest returns the signed distance from the nearest of ends (not empty)
// to lba: the one of minimum magnitude, the first in slot order on a tie.
// The magnitude is taken with the sign trick and compared signed, so the
// loop body is branch-free (the compiler selects with CMOVQ) and a distance
// of -2^63, whose magnitude wraps to itself, counts as the smallest.
func nearest(lba uint64, ends []uint64) int64 {
	best := int64(lba - ends[0])
	bestMag := (best ^ best>>63) - best>>63
	for _, e := range ends[1:] {
		d := int64(lba - e)
		mag := (d ^ d>>63) - d>>63
		if mag < bestMag {
			best, bestMag = d, mag
		}
	}
	return best
}

// OnIssueBatch records the arrival-side metrics for a burst of commands
// issued at one instant (vscsi.BatchObserver). It is sample-for-sample
// equivalent to calling OnIssue once per request in order — the property
// the bit-exactness tests pin — but amortizes the per-command overheads
// across the burst: the observer dispatch is one call and the mutex is
// taken once instead of once per command.
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
	c.lock()
	c.observations += nBlock
	// Time the burst when it crosses a 1-in-64 observation boundary,
	// recording the burst's mean cost per command — the same sampling
	// rate as the per-command path.
	sampled := c.observations>>6 != (c.observations-nBlock)>>6
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	for _, r := range rs {
		if r.Cmd.Op.IsBlockIO() {
			c.h.issue(r)
		}
	}
	c.mu.Unlock()
	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds() / nBlock)
	}
}

// OnComplete records device latency (§3.5) and error counts inside the same
// critical section: 2 locked operations per command.
func (c *Collector) OnComplete(r *vscsi.Request) {
	if !c.enabled.Load() {
		return
	}
	if !r.Cmd.Op.IsBlockIO() {
		return
	}
	c.lock()
	c.observations++
	sampled := c.observations&selfSampleMask == 0
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	if r.Status != scsi.StatusGood {
		c.h.errors++
	} else {
		c.h.insert(hLatency+classOf(r.Cmd.Op), r.Latency().Micros())
	}
	c.mu.Unlock()
	if sampled {
		c.self.observeNs.Insert(time.Since(t0).Nanoseconds())
	}
}
