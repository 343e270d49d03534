package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// countedCollector is the collector as it was before the class-all
// histograms and the counters became derived: every sample is inserted
// twice (class all and class reads|writes) and five counters are bumped per
// command. It survives only here, as the oracle the derived Snapshot must
// match field for field. Single-goroutine, so plain fields stand in for the
// atomics and the stream mutex.
type countedCollector struct {
	vm, disk string
	window   int
	enabled  bool
	h        *countedSet
}

type countedSet struct {
	ioLength     [3]*histogram.Histogram // indexed by Class
	seekDistance [3]*histogram.Histogram
	seekWindowed *histogram.Histogram
	outstanding  [3]*histogram.Histogram
	latency      [3]*histogram.Histogram
	interarrival [3]*histogram.Histogram

	lastEnd     uint64
	haveLast    bool
	recent      []uint64
	recentLen   int
	recentPos   int
	lastArrival simclock.Time
	haveArrival bool

	commands, reads, writes, readBytes, writeBytes, errors int64
}

func newCountedSet(window int) *countedSet {
	h := &countedSet{recent: make([]uint64, window)}
	for class, suffix := range [...]string{"", " (Reads)", " (Writes)"} {
		h.ioLength[class] = histogram.NewIOLength("I/O Length Histogram" + suffix)
		h.seekDistance[class] = histogram.SeekDistanceLayout.New("Seek Distance Histogram" + suffix)
		h.outstanding[class] = histogram.OutstandingLayout.New("Outstanding I/Os Histogram" + suffix)
		h.latency[class] = histogram.LatencyLayout.New("I/O Latency Histogram" + suffix)
		h.interarrival[class] = histogram.InterarrivalLayout.New("I/O Interarrival Histogram" + suffix)
	}
	h.seekWindowed = histogram.SeekDistanceLayout.New("Seek Distance Histogram (Windowed)")
	return h
}

func (c *countedCollector) Enable() {
	if c.h == nil {
		c.h = newCountedSet(c.window)
	}
	c.enabled = true
}

func (c *countedCollector) Disable() { c.enabled = false }

func (c *countedCollector) Reset() {
	if c.h != nil {
		c.h = newCountedSet(c.window)
	}
}

func (c *countedCollector) BreakStream() {
	if h := c.h; h != nil {
		h.haveLast, h.recentLen, h.recentPos, h.haveArrival = false, 0, 0, false
	}
}

func (c *countedCollector) OnIssue(r *vscsi.Request) {
	cmd := r.Cmd
	if !c.enabled || !cmd.Op.IsBlockIO() {
		return
	}
	h := c.h
	class := Reads
	if cmd.Op.IsWrite() {
		class = Writes
	}
	h.commands++
	if class == Reads {
		h.reads++
		h.readBytes += cmd.Bytes()
	} else {
		h.writes++
		h.writeBytes += cmd.Bytes()
	}
	h.ioLength[All].Insert(cmd.Bytes())
	h.ioLength[class].Insert(cmd.Bytes())
	oio := int64(r.OutstandingAtIssue)
	h.outstanding[All].Insert(oio)
	h.outstanding[class].Insert(oio)

	if h.haveLast {
		seek := int64(cmd.LBA) - int64(h.lastEnd)
		h.seekDistance[All].Insert(seek)
		h.seekDistance[class].Insert(seek)
	}
	if h.recentLen > 0 {
		h.seekWindowed.Insert(nearestLoop(cmd.LBA, h.recent, h.recentLen))
	}
	h.lastEnd, h.haveLast = cmd.LastLBA(), true
	h.recent[h.recentPos] = cmd.LastLBA()
	h.recentPos = (h.recentPos + 1) % len(h.recent)
	if h.recentLen < len(h.recent) {
		h.recentLen++
	}
	if h.haveArrival {
		inter := (r.IssueTime - h.lastArrival).Micros()
		h.interarrival[All].Insert(inter)
		h.interarrival[class].Insert(inter)
	}
	h.lastArrival, h.haveArrival = r.IssueTime, true
}

// OnIssueBatch is the per-command path in issue order: the equivalence
// the batch entry point has always been pinned to.
func (c *countedCollector) OnIssueBatch(rs []*vscsi.Request) {
	for _, r := range rs {
		c.OnIssue(r)
	}
}

func (c *countedCollector) OnComplete(r *vscsi.Request) {
	if !c.enabled || !r.Cmd.Op.IsBlockIO() {
		return
	}
	h := c.h
	if r.Status != scsi.StatusGood {
		h.errors++
		return
	}
	lat := r.Latency().Micros()
	h.latency[All].Insert(lat)
	if r.Cmd.Op.IsWrite() {
		h.latency[Writes].Insert(lat)
	} else {
		h.latency[Reads].Insert(lat)
	}
}

// Snapshot returns the oracle's state in the form a snapshot had when it
// was sixteen histogram objects, which is also its JSON form.
func (c *countedCollector) Snapshot() *snapshotJSON {
	h := c.h
	if h == nil {
		return nil
	}
	classes := func(hs [3]*histogram.Histogram) (out [3]*histogram.Snapshot) {
		for class, h := range hs {
			out[class] = h.Snapshot()
		}
		return out
	}
	return &snapshotJSON{
		VM: c.vm, Disk: c.disk,
		IOLength:     classes(h.ioLength),
		SeekDistance: classes(h.seekDistance),
		Windowed:     h.seekWindowed.Snapshot(),
		Outstanding:  classes(h.outstanding),
		Latency:      classes(h.latency),
		Interarrival: classes(h.interarrival),
		Commands:     h.commands, NumReads: h.reads, NumWrites: h.writes,
		ReadBytes: h.readBytes, WriteBytes: h.writeBytes, Errors: h.errors,
	}
}

// oracleMix shapes one seeded stream: the share of writes and of non-block
// opcodes among issued commands, and of non-GOOD completions.
type oracleMix struct {
	name                        string
	writePct, nonBlockPct       int
	errorPct                    int
	lifecycle                   bool // Reset, BreakStream, Disable/Enable mid-stream
	startDisabled, neverEnabled bool
}

// collectorAPI is what the oracle and the collector share.
type collectorAPI interface {
	vscsi.BatchObserver
	Enable()
	Disable()
	Reset()
	BreakStream()
}

// TestSnapshotMatchesCountedOracle drives the collector and the counted
// reference with the same seeded streams — single issues, bursts on both
// sides of batchStack, completions good and bad, non-block opcodes,
// lifecycle calls mid-stream — and requires identical snapshots after
// every step batch — the collector's as the views over its cells: every
// Name, Unit, Edges, bin, Sum, Total, Min, Max and counter, including the
// empty-class cases of the derived class-all histogram.
func TestSnapshotMatchesCountedOracle(t *testing.T) {
	mixes := []oracleMix{
		{name: "mixed", writePct: 30, nonBlockPct: 5, errorPct: 5, lifecycle: true},
		{name: "reads only", writePct: 0, errorPct: 3},
		{name: "writes only", writePct: 100, errorPct: 3},
		{name: "no block I/O", nonBlockPct: 100},
		{name: "all completions fail", writePct: 50, errorPct: 100},
		{name: "enabled late", writePct: 40, startDisabled: true, lifecycle: true},
		{name: "never enabled", writePct: 40, neverEnabled: true},
	}
	for _, mix := range mixes {
		for _, seed := range []int64{1, 7919} {
			for _, window := range []int{1, DefaultWindow} {
				t.Run(fmt.Sprintf("%s/seed%d/window%d", mix.name, seed, window), func(t *testing.T) {
					runOracle(t, mix, seed, window)
				})
			}
		}
	}
}

func runOracle(t *testing.T, mix oracleMix, seed int64, window int) {
	got := NewCollectorWindow("vm", "scsi0:0", window)
	want := &countedCollector{vm: "vm", disk: "scsi0:0", window: window}
	both := []collectorAPI{got, want}
	if !mix.startDisabled && !mix.neverEnabled {
		got.Enable()
		want.Enable()
	}

	rng := rand.New(rand.NewSource(seed))
	var now simclock.Time
	var inflight []*vscsi.Request
	var nextID uint64
	newReq := func() *vscsi.Request {
		var cmd scsi.Command
		lba, blocks := uint64(rng.Intn(1<<24)), uint32(1+rng.Intn(2048))
		switch p := rng.Intn(100); {
		case p < mix.nonBlockPct:
			cmd = scsi.Command{Op: []scsi.OpCode{scsi.OpTestUnitReady, scsi.OpInquiry, scsi.OpReadCapacity10}[rng.Intn(3)]}
		case rng.Intn(100) < mix.writePct:
			cmd = scsi.Write(lba, blocks)
		default:
			cmd = scsi.Read(lba, blocks)
		}
		nextID++
		r := &vscsi.Request{ID: nextID, VM: "vm", Disk: "scsi0:0", Cmd: cmd,
			IssueTime: now, OutstandingAtIssue: len(inflight)}
		inflight = append(inflight, r)
		return r
	}

	for step := 0; step < 3000; step++ {
		now += simclock.Time(rng.Intn(3000)) * simclock.Microsecond
		switch p := rng.Intn(100); {
		case p < 45:
			r := newReq()
			for _, c := range both {
				c.OnIssue(r)
			}
		case p < 55:
			// Bursts of 1..192 commands.
			rs := make([]*vscsi.Request, 1+rng.Intn(3*64))
			for i := range rs {
				rs[i] = newReq()
			}
			for _, c := range both {
				c.OnIssueBatch(rs)
			}
		case p < 95:
			if len(inflight) == 0 {
				continue
			}
			i := rng.Intn(len(inflight))
			r := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			r.CompleteTime = now + simclock.Time(rng.Intn(50000))*simclock.Microsecond
			r.Status = scsi.StatusGood
			if rng.Intn(100) < mix.errorPct {
				r.Status = scsi.StatusCheckCondition
			}
			for _, c := range both {
				c.OnComplete(r)
			}
		case !mix.lifecycle:
		case p < 96:
			for _, c := range both {
				c.Reset()
			}
		case p < 97:
			for _, c := range both {
				c.BreakStream()
			}
		case p < 98:
			for _, c := range both {
				c.Disable()
			}
		default:
			for _, c := range both {
				c.Enable()
			}
		}
		if step%97 == 0 || step == 2999 {
			g, w := got.Snapshot(), want.Snapshot()
			if (g == nil) != (w == nil) {
				t.Fatalf("step %d: snapshot nil = %v, the counted oracle's = %v", step, g == nil, w == nil)
			}
			if g != nil && !reflect.DeepEqual(g.jsonForm(), w) {
				t.Fatalf("step %d: derived snapshot differs from the counted oracle\n%s", step, snapshotDiff(g.jsonForm(), w))
			}
		}
	}
	if s := got.Snapshot(); mix.neverEnabled != (s == nil) {
		t.Fatalf("snapshot nil = %v, never enabled = %v", s == nil, mix.neverEnabled)
	}
}

// snapshotDiff names the fields two snapshots differ in.
func snapshotDiff(g, w *snapshotJSON) string {
	out := ""
	if g.Commands != w.Commands || g.NumReads != w.NumReads || g.NumWrites != w.NumWrites ||
		g.ReadBytes != w.ReadBytes || g.WriteBytes != w.WriteBytes || g.Errors != w.Errors {
		out += fmt.Sprintf("counters: got %d/%d/%d/%d/%d/%d want %d/%d/%d/%d/%d/%d\n",
			g.Commands, g.NumReads, g.NumWrites, g.ReadBytes, g.WriteBytes, g.Errors,
			w.Commands, w.NumReads, w.NumWrites, w.ReadBytes, w.WriteBytes, w.Errors)
	}
	gh, wh := g.hists(), w.hists()
	for k, h := range cellTable {
		if hg, hw := *gh[k], *wh[k]; !reflect.DeepEqual(hg, hw) {
			out += fmt.Sprintf("%s/%s:\n  got  %+v\n  want %+v\n", h.Metric, h.Class, *hg, *hw)
		}
	}
	return out
}
