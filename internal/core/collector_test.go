package core

import (
	"strings"
	"testing"

	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// rig wires a collector to a virtual disk over a fixed-latency backend.
type rig struct {
	eng *simclock.Engine
	d   *vscsi.Disk
	col *Collector
}

func newRig(t *testing.T, latency simclock.Time) *rig {
	t.Helper()
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(latency, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{
		VM: "vm1", Name: "scsi0:0", CapacitySectors: 1 << 30,
	})
	col := NewCollector("vm1", "scsi0:0")
	col.Enable()
	d.AddObserver(col)
	return &rig{eng, d, col}
}

// issueAt issues cmd at virtual time at and runs the engine to drain.
func (r *rig) issueSeq(t *testing.T, gap simclock.Time, cmds ...scsi.Command) {
	t.Helper()
	at := r.eng.Now()
	for _, cmd := range cmds {
		cmd := cmd
		r.eng.At(at, func(simclock.Time) {
			if _, err := r.d.Issue(cmd, nil); err != nil {
				t.Errorf("issue: %v", err)
			}
		})
		at += gap
	}
	r.eng.Run()
}

func TestDisabledCollectorRecordsNothing(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.col.Disable()
	r.issueSeq(t, simclock.Millisecond, scsi.Read(0, 8))
	s := r.col.Snapshot()
	if s.Commands != 0 || s.Histogram(MetricIOLength, All).Total != 0 {
		t.Errorf("disabled collector recorded data: %+v", s)
	}
}

func TestNeverEnabledSnapshotNil(t *testing.T) {
	c := NewCollector("v", "d")
	if c.Snapshot() != nil {
		t.Error("never-enabled collector should have nil snapshot (no data structures)")
	}
	if c.Enabled() {
		t.Error("new collector should be disabled")
	}
}

func TestIOLengthAndReadWriteBreakdown(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond,
		scsi.Read(0, 8),     // 4096 B
		scsi.Write(100, 16), // 8192 B
		scsi.Read(200, 8),
	)
	s := r.col.Snapshot()
	if s.Commands != 3 || s.NumReads != 2 || s.NumWrites != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if s.ReadBytes != 8192 || s.WriteBytes != 8192 {
		t.Errorf("bytes: read=%d write=%d", s.ReadBytes, s.WriteBytes)
	}
	if got := s.ReadFraction(); got < 0.66 || got > 0.67 {
		t.Errorf("ReadFraction = %v", got)
	}
	all, reads, writes := s.Histogram(MetricIOLength, All), s.Histogram(MetricIOLength, Reads), s.Histogram(MetricIOLength, Writes)
	if all.Total != 3 || reads.Total != 2 || writes.Total != 1 {
		t.Errorf("length totals: %d/%d/%d", all.Total, reads.Total, writes.Total)
	}
	// 4096 must land exactly in the "4096" bin.
	idx := -1
	for i := range reads.Counts {
		if reads.BinLabel(i) == "4096" {
			idx = i
		}
	}
	if reads.Counts[idx] != 2 {
		t.Errorf("reads in 4096 bin = %d, want 2", reads.Counts[idx])
	}
}

func TestSeekDistanceSequentialPeaksNearOne(t *testing.T) {
	r := newRig(t, simclock.Microsecond)
	// Three perfectly sequential 8-sector reads: LBA 0, 8, 16.
	r.issueSeq(t, simclock.Millisecond,
		scsi.Read(0, 8), scsi.Read(8, 8), scsi.Read(16, 8))
	s := r.col.Snapshot()
	sd := s.Histogram(MetricSeekDistance, All)
	if sd.Total != 2 { // first I/O has no predecessor
		t.Fatalf("seek samples = %d, want 2", sd.Total)
	}
	// distance = 8 - 7 = 1 -> bin "2"
	for i, c := range sd.Counts {
		if c > 0 && sd.BinLabel(i) != "2" {
			t.Errorf("sequential seeks landed in bin %s", sd.BinLabel(i))
		}
	}
	if sd.Min != 1 || sd.Max != 1 {
		t.Errorf("seek min/max = %d/%d, want 1/1", sd.Min, sd.Max)
	}
}

func TestSeekDistanceReverseScanNegative(t *testing.T) {
	r := newRig(t, simclock.Microsecond)
	r.issueSeq(t, simclock.Millisecond,
		scsi.Read(100000, 8), scsi.Read(50000, 8))
	s := r.col.Snapshot()
	sd := s.Histogram(MetricSeekDistance, All)
	if sd.Min >= 0 {
		t.Errorf("reverse scan not negative: min=%d", sd.Min)
	}
	// 50000 - 100007 = -50007 -> first edge >= -50007 is -50000? No:
	// -50007 <= -50000, so bin edge -50000 (bin 1).
	if sd.Counts[1] != 1 {
		t.Errorf("reverse scan bin counts: %v", sd.Counts)
	}
}

func TestSeekDistanceSameBlockZero(t *testing.T) {
	r := newRig(t, simclock.Microsecond)
	// Repeatedly accessing the same block: distance = LBA - LastLBA.
	// For single-sector I/Os at the same LBA the distance is 0.
	r.issueSeq(t, simclock.Millisecond,
		scsi.Read(500, 1), scsi.Read(500, 1), scsi.Read(500, 1))
	s := r.col.Snapshot()
	sd := s.Histogram(MetricSeekDistance, All)
	for i, c := range sd.Counts {
		if c > 0 && sd.BinLabel(i) != "0" {
			t.Errorf("same-block access in bin %s", sd.BinLabel(i))
		}
	}
	if sd.Total != 2 {
		t.Errorf("Total = %d", sd.Total)
	}
}

func TestWindowedSeekDisentanglesTwoStreams(t *testing.T) {
	// Two interleaved sequential streams far apart: the plain histogram
	// sees huge alternating jumps, the windowed histogram sees distance 1.
	r := newRig(t, simclock.Microsecond)
	var cmds []scsi.Command
	base2 := uint64(10_000_000)
	for i := uint64(0); i < 20; i++ {
		cmds = append(cmds, scsi.Read(i*8, 8), scsi.Read(base2+i*8, 8))
	}
	r.issueSeq(t, simclock.Millisecond, cmds...)
	s := r.col.Snapshot()

	plain, windowed := s.Histogram(MetricSeekDistance, All), s.Histogram(MetricSeekWindowed, All)
	// Plain: nearly all samples beyond +/-500000.
	farPlain := plain.Counts[0] + plain.Counts[len(plain.Counts)-1]
	if float64(farPlain)/float64(plain.Total) < 0.9 {
		t.Errorf("plain histogram should be dominated by far seeks: %v", plain.Counts)
	}
	// Windowed: dominated by the sequential bin "2" (distance 1).
	var seq int64
	for i, c := range windowed.Counts {
		if windowed.BinLabel(i) == "2" {
			seq = c
		}
	}
	if float64(seq)/float64(windowed.Total) < 0.9 {
		t.Errorf("windowed histogram should peak at 1: %v (total %d)", windowed.Counts, windowed.Total)
	}
}

func TestWindowedSeekRespectsWindowSize(t *testing.T) {
	// With window 1 the windowed histogram degenerates to the plain one.
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 30})
	col := NewCollectorWindow("v", "d", 1)
	col.Enable()
	d.AddObserver(col)
	for i := uint64(0); i < 10; i++ {
		d.Issue(scsi.Read(i*8, 8), nil)
		d.Issue(scsi.Read(5_000_000+i*8, 8), nil)
	}
	eng.Run()
	s := col.Snapshot()
	for i := range s.Histogram(MetricSeekDistance, All).Counts {
		if s.Histogram(MetricSeekDistance, All).Counts[i] != s.Histogram(MetricSeekWindowed, All).Counts[i] {
			t.Fatalf("window=1 should equal plain:\nplain   %v\nwindowed %v",
				s.Histogram(MetricSeekDistance, All).Counts, s.Histogram(MetricSeekWindowed, All).Counts)
		}
	}
}

func TestInterarrivalRecorded(t *testing.T) {
	r := newRig(t, simclock.Microsecond)
	r.issueSeq(t, 500*simclock.Microsecond,
		scsi.Read(0, 8), scsi.Read(8, 8), scsi.Read(16, 8))
	s := r.col.Snapshot()
	ia := s.Histogram(MetricInterarrival, All)
	if ia.Total != 2 {
		t.Fatalf("interarrival samples = %d", ia.Total)
	}
	if ia.Min != 500 || ia.Max != 500 {
		t.Errorf("interarrival min/max = %d/%d us, want 500", ia.Min, ia.Max)
	}
}

func TestLatencyRecordedOnCompletion(t *testing.T) {
	r := newRig(t, 5*simclock.Millisecond)
	r.issueSeq(t, 10*simclock.Millisecond, scsi.Read(0, 8), scsi.Write(100, 8))
	s := r.col.Snapshot()
	if s.Histogram(MetricLatency, All).Total != 2 || s.Histogram(MetricLatency, Reads).Total != 1 || s.Histogram(MetricLatency, Writes).Total != 1 {
		t.Fatalf("latency totals: %d/%d/%d",
			s.Histogram(MetricLatency, All).Total, s.Histogram(MetricLatency, Reads).Total, s.Histogram(MetricLatency, Writes).Total)
	}
	if s.Histogram(MetricLatency, All).Min != 5000 {
		t.Errorf("latency = %d us, want 5000", s.Histogram(MetricLatency, All).Min)
	}
}

func TestOutstandingIOsAtArrival(t *testing.T) {
	r := newRig(t, 10*simclock.Millisecond)
	// Issue 4 commands at the same instant: depths 0,1,2,3.
	for i := 0; i < 4; i++ {
		r.d.Issue(scsi.Read(uint64(i*8), 8), nil)
	}
	r.eng.Run()
	s := r.col.Snapshot()
	oio := s.Histogram(MetricOutstanding, All)
	if oio.Total != 4 {
		t.Fatalf("oio samples = %d", oio.Total)
	}
	if oio.Min != 0 || oio.Max != 3 {
		t.Errorf("oio min/max = %d/%d", oio.Min, oio.Max)
	}
}

func TestErrorsCountedNotTimed(t *testing.T) {
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusCheckCondition, scsi.SenseUnrecoveredRead)
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 20})
	col := NewCollector("v", "d")
	col.Enable()
	d.AddObserver(col)
	d.Issue(scsi.Read(0, 8), nil)
	eng.Run()
	s := col.Snapshot()
	if s.Errors != 1 {
		t.Errorf("Errors = %d", s.Errors)
	}
	if s.Histogram(MetricLatency, All).Total != 0 {
		t.Error("failed command must not contribute a latency sample")
	}
	// Arrival-side metrics were still recorded.
	if s.Histogram(MetricIOLength, All).Total != 1 {
		t.Error("arrival metrics missing for failed command")
	}
}

func TestNonIOCommandsInvisible(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond,
		scsi.Command{Op: scsi.OpTestUnitReady},
		scsi.Command{Op: scsi.OpInquiry},
		scsi.Read(0, 8))
	s := r.col.Snapshot()
	if s.Commands != 1 {
		t.Errorf("Commands = %d, want 1 (non-I/O invisible)", s.Commands)
	}
}

func TestDisableEnablePreservesData(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond, scsi.Read(0, 8))
	r.col.Disable()
	r.issueSeq(t, simclock.Millisecond, scsi.Read(8, 8), scsi.Read(16, 8))
	r.col.Enable()
	r.issueSeq(t, simclock.Millisecond, scsi.Read(24, 8))
	s := r.col.Snapshot()
	if s.Commands != 2 {
		t.Errorf("Commands = %d, want 2 (1 before + 1 after disable window)", s.Commands)
	}
}

func TestResetClearsEverything(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond, scsi.Read(0, 8), scsi.Read(8, 8))
	r.col.Reset()
	s := r.col.Snapshot()
	if s.Commands != 0 || s.Histogram(MetricIOLength, All).Total != 0 || s.Histogram(MetricSeekDistance, All).Total != 0 {
		t.Errorf("Reset incomplete: %+v", s)
	}
	// Per-stream state must also clear: the next I/O has no predecessor.
	r.issueSeq(t, simclock.Millisecond, scsi.Read(16, 8))
	if got := r.col.Snapshot().Histogram(MetricSeekDistance, All).Total; got != 0 {
		t.Errorf("seek recorded against pre-reset predecessor: %d", got)
	}
}

func TestSnapshotSubIsInterval(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond, scsi.Read(0, 8))
	s1 := r.col.Snapshot()
	r.issueSeq(t, simclock.Millisecond, scsi.Write(100, 16), scsi.Write(200, 16))
	s2 := r.col.Snapshot()
	d := s2.Sub(s1)
	if d.Commands != 2 || d.NumWrites != 2 || d.NumReads != 0 {
		t.Errorf("interval: %+v", d)
	}
	// Two 16-block (8192-byte, bin 6) writes since s1: bins, total and sum
	// are the interval's, the earlier read is gone from every class.
	w, all := d.Histogram(MetricIOLength, Writes), d.Histogram(MetricIOLength, All)
	for _, h := range []*histogram.Snapshot{w, all} {
		var bins int64
		for _, c := range h.Counts {
			bins += c
		}
		if h.Total != 2 || bins != 2 || h.Counts[6] != 2 || h.Sum != 2*16*512 {
			t.Errorf("%s over the interval: %+v", h.Name, h)
		}
	}
	if r := d.Histogram(MetricIOLength, Reads); r.Total != 0 || r.Sum != 0 {
		t.Errorf("interval read lengths: %+v", r)
	}
}

func TestHistogramAccessorCoversAllMetrics(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond, scsi.Read(0, 8), scsi.Read(8, 8))
	s := r.col.Snapshot()
	for _, m := range Metrics() {
		for _, cl := range []Class{All, Reads, Writes} {
			if s.Histogram(m, cl) == nil {
				t.Errorf("Histogram(%s, %s) = nil", m, cl)
			}
		}
	}
	if s.Histogram(Metric("bogus"), All) != nil {
		t.Error("unknown metric should return nil")
	}
}

func TestSummaryRenders(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	r.issueSeq(t, simclock.Millisecond, scsi.Read(0, 8), scsi.Write(64, 8))
	sum := r.col.Snapshot().Summary()
	for _, want := range []string{"vm1", "scsi0:0", "2 commands", "ioLength"} {
		if !strings.Contains(sum, want) {
			t.Errorf("Summary missing %q:\n%s", want, sum)
		}
	}
	if out := r.col.Snapshot().Render(Metrics(), All); !strings.Contains(out, "I/O Length Histogram") {
		t.Errorf("Render missing length histogram:\n%s", out)
	}
}

func TestCollectorWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window 0 should panic")
		}
	}()
	NewCollectorWindow("v", "d", 0)
}

func BenchmarkCollectorOnIssueEnabled(b *testing.B) {
	col := NewCollector("v", "d")
	col.Enable()
	r := &vscsi.Request{Cmd: scsi.Read(0, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Cmd.LBA = uint64(i) * 8 % (1 << 30)
		r.IssueTime = simclock.Time(i) * simclock.Microsecond
		r.OutstandingAtIssue = i % 32
		col.OnIssue(r)
	}
}

func BenchmarkCollectorOnIssueDisabled(b *testing.B) {
	col := NewCollector("v", "d")
	r := &vscsi.Request{Cmd: scsi.Read(0, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col.OnIssue(r)
	}
}
