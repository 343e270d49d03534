package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

func TestIntervalRecorderDeltas(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	rec := NewIntervalRecorder(r.eng, r.col, 6*simclock.Second)
	// 1 I/O per second for 18 seconds (offset half a second to avoid
	// same-instant ties with the ticks): three 6-second intervals of 6.
	for i := 0; i < 18; i++ {
		i := i
		r.eng.At(simclock.Time(i)*simclock.Second+500*simclock.Millisecond, func(simclock.Time) {
			r.d.Issue(scsi.Read(uint64(i*8), 8), nil)
		})
	}
	r.eng.RunUntil(18*simclock.Second + 1)
	rec.Stop()
	if len(rec.Intervals) != 3 {
		t.Fatalf("intervals = %d, want 3", len(rec.Intervals))
	}
	for i, s := range rec.Intervals {
		if s.Commands != 6 {
			t.Errorf("interval %d commands = %d, want 6", i, s.Commands)
		}
	}
	rates := rec.Rates()
	if len(rates) != 3 || rates[0] != 6 {
		t.Errorf("Rates = %v", rates)
	}
}

// TestIntervalsAddUpToTheSnapshot is the interval law: stopped on a tick's
// instant, the recorder's intervals folded from empty equal the cumulative
// snapshot minus the one it started from, on counters and bins — commands
// issued at a tick's instant on either side of its event included.
// Extrema are not additive and stay out.
func TestIntervalsAddUpToTheSnapshot(t *testing.T) {
	r := newRig(t, 3*simclock.Millisecond)
	rng := rand.New(rand.NewSource(46))
	issue := func(at simclock.Time) {
		r.eng.At(at, func(simclock.Time) {
			for range 1 + rng.Intn(4) {
				cmd := scsi.Read(uint64(rng.Intn(1<<20)), 8)
				if rng.Intn(3) == 0 {
					cmd = scsi.Write(uint64(rng.Intn(1<<20)), 16)
				}
				r.d.Issue(cmd, nil)
			}
		})
	}
	issue(0)
	r.eng.RunUntil(simclock.Second / 2)
	base := r.col.Snapshot()
	rec := NewIntervalRecorder(r.eng, r.col, simclock.Second)
	for k := range 4 { // ticks at 1.5 s … 4.5 s
		tick := simclock.Time(k+1)*simclock.Second + simclock.Second/2
		for range 20 {
			issue(tick - simclock.Time(rng.Int63n(int64(simclock.Second))))
		}
		issue(tick)                                                              // queued before the tick but the first's
		r.eng.At(tick-simclock.Millisecond, func(simclock.Time) { issue(tick) }) // queued after it
	}
	r.eng.RunUntil(4*simclock.Second + simclock.Second/2)
	rec.Stop()

	sum := new(Snapshot)
	for _, d := range rec.Intervals {
		sum = sum.ApplyDelta(d)
	}
	want := r.col.Snapshot().Sub(base)
	for i := range cellTable { // the extrema of intervals do not add up
		d, s := cellTable[i].Of(sum.cells), cellTable[i].Of(want.cells)
		copy(d[len(d)-2:], s[len(s)-2:])
	}
	if len(rec.Intervals) != 4 || !sum.StateEquals(want) {
		t.Fatalf("%d intervals of %d commands in all, want 4 of %d, every bin alike", len(rec.Intervals), sum.Commands, want.Commands)
	}
}

func TestIntervalRecorderSeries(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	rec := NewIntervalRecorder(r.eng, r.col, simclock.Second)
	// Interval 1: shallow queue. Interval 2: deep queue.
	r.eng.At(100*simclock.Millisecond, func(simclock.Time) {
		r.d.Issue(scsi.Read(0, 8), nil)
	})
	r.eng.At(1100*simclock.Millisecond, func(simclock.Time) {
		for i := 0; i < 8; i++ {
			r.d.Issue(scsi.Read(uint64(i*8), 8), nil)
		}
	})
	r.eng.RunUntil(2*simclock.Second + 1)
	rec.Stop()
	ts := rec.Series(MetricOutstanding, All)
	if ts.Len() != 2 {
		t.Fatalf("series len = %d", ts.Len())
	}
	if ts.Snaps[0].Total != 1 || ts.Snaps[1].Total != 8 {
		t.Errorf("series totals: %d, %d", ts.Snaps[0].Total, ts.Snaps[1].Total)
	}
	if ts.Snaps[1].Max != 7 {
		t.Errorf("interval 2 max OIO = %d, want 7", ts.Snaps[1].Max)
	}
	if !strings.Contains(ts.CSV(), "S1,S2") {
		t.Errorf("series CSV:\n%s", ts.CSV())
	}
}

func TestIntervalRecorderNeedsEnabledCollector(t *testing.T) {
	eng := simclock.NewEngine()
	col := NewCollector("v", "d")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for disabled collector")
		}
	}()
	NewIntervalRecorder(eng, col, simclock.Second)
}

func TestRegistryRegisterLookupList(t *testing.T) {
	reg := NewRegistry()
	a := NewCollector("vmB", "scsi0:0")
	b := NewCollector("vmA", "scsi0:1")
	c := NewCollector("vmA", "scsi0:0")
	reg.Register(a)
	reg.Register(b)
	reg.Register(c)
	if reg.Lookup("vmB", "scsi0:0") != a {
		t.Error("Lookup failed")
	}
	if reg.Lookup("nope", "x") != nil {
		t.Error("Lookup of unknown should be nil")
	}
	list := reg.List()
	if len(list) != 3 || list[0] != c || list[1] != b || list[2] != a {
		t.Errorf("List order wrong: %v", list)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(NewCollector("v", "d"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	reg.Register(NewCollector("v", "d"))
}

// TestRegistrySeparatorsInNames: (vm, disk) pairs whose "vm/disk" joins
// are one string are still two disks — names come from trace files.
func TestRegistrySeparatorsInNames(t *testing.T) {
	reg := NewRegistry()
	a, b := NewCollector("a/disk0", "disk1"), NewCollector("a", "disk0/disk1")
	reg.Register(a)
	reg.Register(b)
	if reg.Lookup("a/disk0", "disk1") != a || reg.Lookup("a", "disk0/disk1") != b {
		t.Fatal("lookups crossed between (a/disk0, disk1) and (a, disk0/disk1)")
	}
}

// TestIntervalRecorderAfterReset: a Reset between two ticks makes the
// next interval everything accumulated since (as for the first point
// after enable), never a negative count; later intervals are deltas
// again.
func TestIntervalRecorderAfterReset(t *testing.T) {
	r := newRig(t, simclock.Millisecond)
	rec := NewIntervalRecorder(r.eng, r.col, simclock.Second)
	issue := func(at simclock.Time, n int) {
		r.eng.At(at, func(simclock.Time) {
			for i := 0; i < n; i++ {
				r.d.Issue(scsi.Read(uint64(i*8), 8), nil)
			}
		})
	}
	issue(100*simclock.Millisecond, 10)
	r.eng.At(1100*simclock.Millisecond, func(simclock.Time) { r.col.Reset() })
	issue(1200*simclock.Millisecond, 3)
	issue(2200*simclock.Millisecond, 4)
	r.eng.RunUntil(3*simclock.Second + 1)
	rec.Stop()
	if got := rec.Rates(); len(got) != 3 || got[0] != 10 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Rates = %v, want [10 3 4] (commands: -7 before the rule)", got)
	}
	for i, s := range rec.Intervals {
		for _, n := range s.Histogram(MetricIOLength, All).Counts {
			if n < 0 {
				t.Errorf("interval %d has a negative ioLength bin", i)
			}
		}
	}
}

// TestIntervalSinceKeepsExactDeltas: without a reset the rule is Sub, so
// the fleet's later == earlier.ApplyDelta(delta) law is untouched — and
// Sub itself still goes negative when asked to (the agent's wrap-around
// deltas rely on it).
func TestIntervalSinceKeepsExactDeltas(t *testing.T) {
	col := NewCollector("v", "d")
	col.Enable()
	if first := col.Snapshot(); IntervalSince(nil, first) != first {
		t.Error("first interval after enable must be the cumulative state")
	}
	rng := rand.New(rand.NewSource(7919))
	deltaFeed(t, rng, col, 10)
	earlier := col.Snapshot()
	deltaFeed(t, rng, col, 5)
	later := col.Snapshot()
	d := IntervalSince(earlier, later)
	if d.Commands != 5 || !earlier.ApplyDelta(d).StateEquals(later) {
		t.Errorf("interval commands = %d; ApplyDelta law broken", d.Commands)
	}
	if back := earlier.Sub(later); back.Commands != -5 {
		t.Errorf("Sub(later) commands = %d, want the exact -5", back.Commands)
	}
	if again := IntervalSince(later, earlier); again != earlier {
		t.Error("a snapshot below its predecessor must be returned whole")
	}
}

// refAggregate is Aggregate as it was before it was built on AddInterval:
// a copy of the first snapshot, then each other one's counters and cells
// added, histogram by histogram, extrema widening over the non-empty ones.
func refAggregate(snaps []*Snapshot) *Snapshot {
	out := *snaps[0]
	out.cells = slices.Clone(snaps[0].Cells())
	for _, s := range snaps[1:] {
		out.Commands, out.NumReads, out.NumWrites = out.Commands+s.Commands, out.NumReads+s.NumReads, out.NumWrites+s.NumWrites
		out.ReadBytes, out.WriteBytes, out.Errors = out.ReadBytes+s.ReadBytes, out.WriteBytes+s.WriteBytes, out.Errors+s.Errors
		cells := s.Cells()
		for i := range cellTable {
			dst, src := cellTable[i].Of(out.cells), cellTable[i].Of(cells)
			total := len(dst) - 3
			switch {
			case dst[total] == 0:
				dst[total+1], dst[total+2] = src[total+1], src[total+2]
			case src[total] == 0:
			default:
				dst[total+1], dst[total+2] = min(dst[total+1], src[total+1]), max(dst[total+2], src[total+2])
			}
			for j, c := range src[:total+1] {
				dst[j] += c
			}
		}
	}
	return &out
}

// TestAddIntervalMatchesAggregateOfIntervals: adding random (prev, cur)
// pairs into one snapshot with AddInterval gives what Aggregate gives over
// IntervalSince of the same pairs, extrema included, and leaves every input
// as it was; and Aggregate gives what refAggregate does. The pairs cover a
// first point (prev nil), a counter and a single bin going backwards, equal
// snapshots and empty ones.
func TestAddIntervalMatchesAggregateOfIntervals(t *testing.T) {
	clone := func(s *Snapshot) *Snapshot {
		c := *s
		c.cells = slices.Clone(s.cells)
		return &c
	}
	kinds := map[string]int{}
	for trial := range 40 {
		rng := rand.New(rand.NewSource(int64(trial)*104729 + 3))
		col := NewCollector("v", "d")
		col.Enable()
		var points []*Snapshot // one disk's cumulative series
		for range 5 {
			drive(col, randRequests(rng, rng.Intn(200)))
			points = append(points, col.Snapshot())
		}
		var prevs, curs, held []*Snapshot
		for range 1 + rng.Intn(8) {
			i := rng.Intn(len(points))
			j := i + rng.Intn(len(points)-i)
			prev, cur := points[i], points[j]
			kind := [...]string{"forward", "forward", "first", "backward", "counter back", "bin back", "equal", "empty cur", "empty prev", "both empty"}[rng.Intn(10)]
			switch kind {
			case "first":
				prev = nil
			case "backward":
				prev, cur = cur, prev
			case "counter back":
				prev = clone(cur)
				prev.Errors++
			case "bin back":
				prev = clone(cur)
				h := &cellTable[rng.Intn(len(cellTable))]
				prev.cells[h.Off+rng.Intn(h.Layout.NumBins())]++
			case "equal":
				prev = clone(cur)
			case "empty cur":
				cur = &Snapshot{}
			case "empty prev":
				prev = &Snapshot{}
			case "both empty":
				prev, cur = &Snapshot{}, &Snapshot{}
			}
			kinds[kind]++
			prevs, curs = append(prevs, prev), append(curs, cur)
			for _, s := range []*Snapshot{prev, cur} {
				if s != nil {
					held = append(held, s, clone(s))
				}
			}
		}
		got := &Snapshot{VM: "vm", Disk: "*"}
		var intervals []*Snapshot
		for k := range prevs {
			got.AddInterval(prevs[k], curs[k])
			intervals = append(intervals, IntervalSince(prevs[k], curs[k]))
		}
		want := Aggregate("vm", "*", intervals...)
		if !got.StateEquals(want) {
			reportSnapshotDiff(t, trial, got, want)
		}
		if ref := refAggregate(intervals); !want.StateEquals(ref) {
			t.Errorf("trial %d: Aggregate differs from the reference fold", trial)
			reportSnapshotDiff(t, trial, want, ref)
		}
		for k := 0; k < len(held); k += 2 {
			if !held[k].StateEquals(held[k+1]) {
				t.Fatalf("trial %d: AddInterval changed one of its inputs", trial)
			}
		}
	}
	if len(kinds) != 9 {
		t.Errorf("pair kinds drawn: %v, want all nine", kinds)
	}
}

func TestRegistrySnapshotsSkipNeverEnabled(t *testing.T) {
	reg := NewRegistry()
	reg.Register(NewCollector("v", "d"))
	if got := reg.Snapshots(); len(got) != 0 {
		t.Errorf("Snapshots = %d, want 0", len(got))
	}
}

func issueMany(t *testing.T, r *rig, cmds []scsi.Command, gap simclock.Time) *Snapshot {
	t.Helper()
	r.issueSeq(t, gap, cmds...)
	return r.col.Snapshot()
}

func TestFingerprintSequentialRead(t *testing.T) {
	r := newRig(t, 200*simclock.Microsecond)
	var cmds []scsi.Command
	for i := uint64(0); i < 200; i++ {
		cmds = append(cmds, scsi.Read(i*128, 128)) // 64 KB sequential
	}
	f := FingerprintOf(issueMany(t, r, cmds, simclock.Millisecond))
	if f.AccessPattern != PatternSequential {
		t.Errorf("pattern = %s, want sequential (%+v)", f.AccessPattern, f)
	}
	if f.ReadFraction != 1 {
		t.Errorf("ReadFraction = %v", f.ReadFraction)
	}
	if f.DominantIOBytes != 65536 {
		t.Errorf("DominantIOBytes = %d, want 65536", f.DominantIOBytes)
	}
	recs := f.Recommendations()
	if len(recs) == 0 || !strings.Contains(strings.Join(recs, "\n"), "read-ahead") {
		t.Errorf("recommendations: %v", recs)
	}
}

func TestFingerprintRandomWrite(t *testing.T) {
	r := newRig(t, 200*simclock.Microsecond)
	rng := simclock.NewRand(7)
	var cmds []scsi.Command
	for i := 0; i < 500; i++ {
		cmds = append(cmds, scsi.Write(uint64(rng.Int63n(1<<28)), 16))
	}
	f := FingerprintOf(issueMany(t, r, cmds, simclock.Millisecond))
	if f.AccessPattern != PatternRandom {
		t.Errorf("pattern = %s, want random", f.AccessPattern)
	}
	if f.ReadFraction != 0 {
		t.Errorf("ReadFraction = %v", f.ReadFraction)
	}
	report := f.Report()
	if !strings.Contains(report, "write-back cache") {
		t.Errorf("write-heavy advice missing:\n%s", report)
	}
}

func TestFingerprintReverseScan(t *testing.T) {
	r := newRig(t, 100*simclock.Microsecond)
	var cmds []scsi.Command
	for i := 400; i > 0; i-- {
		cmds = append(cmds, scsi.Read(uint64(i)*100000, 8))
	}
	f := FingerprintOf(issueMany(t, r, cmds, simclock.Millisecond))
	if f.ReverseScanFraction < 0.9 {
		t.Errorf("ReverseScanFraction = %v, want ~1", f.ReverseScanFraction)
	}
	if !strings.Contains(strings.Join(f.Recommendations(), "\n"), "reverse scans") {
		t.Error("reverse-scan advice missing")
	}
}

func TestFingerprintEmpty(t *testing.T) {
	var zero Fingerprint
	if got := FingerprintOf(nil); got != zero {
		t.Errorf("FingerprintOf(nil) = %+v", got)
	}
	c := NewCollector("v", "d")
	c.Enable()
	if got := FingerprintOf(c.Snapshot()); got != zero {
		t.Errorf("FingerprintOf(empty) = %+v", got)
	}
}

func TestFingerprintString(t *testing.T) {
	f := Fingerprint{AccessPattern: PatternMixed, SequentialFraction: 0.5,
		ReadFraction: 0.25, DominantIOBytes: 8192, MeanOutstanding: 3.2}
	s := f.String()
	for _, want := range []string{"mixed", "50% local", "25% reads", "8192B"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func vscsiBackend(eng *simclock.Engine) vscsi.Backend {
	return vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(simclock.Millisecond, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
}

func vscsiDisk(eng *simclock.Engine, b vscsi.Backend, vm, disk string) *vscsi.Disk {
	return vscsi.NewDisk(eng, b, vscsi.DiskConfig{VM: vm, Name: disk, CapacitySectors: 1 << 20})
}

func TestAggregateAndVMSnapshot(t *testing.T) {
	mk := func(vm, disk string, reads int) *Collector {
		eng := simclock.NewEngine()
		backend := vscsiBackend(eng)
		d := vscsiDisk(eng, backend, vm, disk)
		c := NewCollector(vm, disk)
		c.Enable()
		d.AddObserver(c)
		for i := 0; i < reads; i++ {
			d.Issue(scsi.Read(uint64(i*8), 8), nil)
		}
		eng.Run()
		return c
	}
	reg := NewRegistry()
	a := mk("vm1", "d0", 3)
	b := mk("vm1", "d1", 5)
	c := mk("vm2", "d0", 7)
	reg.Register(a)
	reg.Register(b)
	reg.Register(c)

	vmAgg := Aggregate("vm1", "*", a.Snapshot(), b.Snapshot())
	if vmAgg.Commands != 8 || vmAgg.NumReads != 8 {
		t.Errorf("vm1 aggregate: %+v", vmAgg.Commands)
	}
	if vmAgg.Histogram(MetricIOLength, All).Total != 8 {
		t.Errorf("vm1 length total = %d", vmAgg.Histogram(MetricIOLength, All).Total)
	}
	host := Aggregate("*", "*", reg.Snapshots()...)
	if host.Commands != 15 {
		t.Errorf("host aggregate: %d", host.Commands)
	}
	if Aggregate("x", "y") != nil {
		t.Error("empty aggregate should be nil")
	}
	// Aggregation must not mutate the inputs.
	if a.Snapshot().Commands != 3 {
		t.Error("aggregate mutated a source snapshot")
	}
}
