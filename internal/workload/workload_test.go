package workload

import (
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/fs"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// wlRig wires a virtual disk with a collector over a fixed-latency backend.
type wlRig struct {
	eng  *simclock.Engine
	disk *vscsi.Disk
	col  *core.Collector
}

func newWLRig(t *testing.T, latency simclock.Time, capacitySectors uint64) *wlRig {
	t.Helper()
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		// Size-dependent service: fixed positioning cost plus transfer at
		// 100 MB/s, so large I/Os take proportionally longer.
		svc := latency + simclock.Time(r.Cmd.Bytes()*int64(simclock.Second)/(100<<20))
		eng.After(svc, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
	disk := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{
		VM: "vm", Name: "scsi0:0", CapacitySectors: capacitySectors,
	})
	col := core.NewCollector("vm", "scsi0:0")
	col.Enable()
	disk.AddObserver(col)
	return &wlRig{eng, disk, col}
}

func binCount(s *core.Snapshot, m core.Metric, cl core.Class, label string) int64 {
	h := s.Histogram(m, cl)
	for i := range h.Counts {
		if h.BinLabel(i) == label {
			return h.Counts[i]
		}
	}
	return -1
}

func TestFilebenchOLTPOnUFS(t *testing.T) {
	r := newWLRig(t, 2*simclock.Millisecond, 1<<27) // 64 GB
	ufs := fs.NewPlain(r.eng, r.disk, fs.UFSConfig())
	fb := NewFilebench(r.eng, ufs, OLTPModel(2<<30, 256<<20), 7)
	if err := fb.Setup(); err != nil {
		t.Fatal(err)
	}
	fb.Start()
	r.eng.RunUntil(10 * simclock.Second)
	fb.Stop()
	s := r.col.Snapshot()
	if s.Commands < 1000 {
		t.Fatalf("only %d commands in 10s", s.Commands)
	}
	// I/O lengths: dominated by 4 KB writes and 8 KB block reads.
	len4k := binCount(s, core.MetricIOLength, core.All, "4096")
	len8k := binCount(s, core.MetricIOLength, core.All, "8192")
	if float64(len4k+len8k)/float64(s.Commands) < 0.9 {
		t.Errorf("4K+8K = %d+%d of %d commands", len4k, len8k, s.Commands)
	}
	// Random access: far seeks dominate (spikes at histogram edges).
	sd := s.Histogram(core.MetricSeekDistance, core.All)
	far := sd.Counts[0] + sd.Counts[1] + sd.Counts[len(sd.Counts)-1] + sd.Counts[len(sd.Counts)-2]
	if float64(far)/float64(sd.Total) < 0.5 {
		t.Errorf("UFS OLTP should be random: far=%d of %d\n%v", far, sd.Total, sd.Counts)
	}
	// Both reads and writes present in a sane ratio.
	if s.NumReads == 0 || s.NumWrites == 0 {
		t.Errorf("reads=%d writes=%d", s.NumReads, s.NumWrites)
	}
	if fb.Stats().Ops == 0 || fb.Name() != "filebench/ufs" {
		t.Errorf("generator stats: %+v name %q", fb.Stats(), fb.Name())
	}
}

func TestFilebenchOLTPOnZFSWritesSequentialAndLarge(t *testing.T) {
	r := newWLRig(t, 2*simclock.Millisecond, 1<<27)
	zcfg := fs.DefaultZFSConfig()
	zcfg.ZILBytes = 0 // isolate the txg stream for this assertion
	z := fs.NewZFS(r.eng, r.disk, zcfg)
	fb := NewFilebench(r.eng, z, OLTPModel(2<<30, 256<<20), 7)
	if err := fb.Setup(); err != nil {
		t.Fatal(err)
	}
	fb.Start()
	r.eng.RunUntil(30 * simclock.Second)
	fb.Stop()
	s := r.col.Snapshot()
	// Writes are large: dominated by the >80 KB bins.
	lw := s.Histogram(core.MetricIOLength, core.Writes)
	var large int64
	for i := range lw.Counts {
		lo, _ := lw.BinRange(i)
		if lo >= 65536 {
			large += lw.Counts[i]
		}
	}
	if lw.Total == 0 || float64(large)/float64(lw.Total) < 0.8 {
		t.Errorf("ZFS writes should be 80-128K: large=%d of %d\n%v", large, lw.Total, lw.Counts)
	}
	// Writes are sequential: seek distances concentrated near 1.
	sw := s.Histogram(core.MetricSeekDistance, core.Writes)
	seq := binCount(s, core.MetricSeekDistance, core.Writes, "2") +
		binCount(s, core.MetricSeekDistance, core.Writes, "0")
	if sw.Total == 0 || float64(seq)/float64(sw.Total) < 0.5 {
		t.Errorf("ZFS writes should be sequential: seq=%d of %d\n%v", seq, sw.Total, sw.Counts)
	}
	// Reads stay random (table lookups) and are record-sized.
	len128k := binCount(s, core.MetricIOLength, core.Reads, "131072")
	if s.Histogram(core.MetricIOLength, core.Reads).Total == 0 ||
		float64(len128k)/float64(s.Histogram(core.MetricIOLength, core.Reads).Total) < 0.8 {
		t.Errorf("ZFS reads should be 128K records:\n%v", s.Histogram(core.MetricIOLength, core.Reads).Counts)
	}
}

func TestDBT2EightKAndDeepWrites(t *testing.T) {
	r := newWLRig(t, 2*simclock.Millisecond, 1<<27)
	ext3 := fs.NewPlain(r.eng, r.disk, fs.Ext3Config())
	cfg := DefaultDBT2Config()
	cfg.DatabaseBytes = 4 << 30
	cfg.WALBytes = 256 << 20
	cfg.CheckpointInterval = 5 * simclock.Second
	d := NewDBT2(r.eng, ext3, cfg)
	if err := d.Setup(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	r.eng.RunUntil(20 * simclock.Second)
	d.Stop()
	s := r.col.Snapshot()
	if s.Commands < 1000 {
		t.Fatalf("only %d commands", s.Commands)
	}
	// Figure 4(b): "The workload is almost exclusively 8K for both reads
	// and writes." (Journal commits are 4K and a small minority.)
	len8k := binCount(s, core.MetricIOLength, core.All, "8192")
	if float64(len8k)/float64(s.Commands) < 0.75 {
		t.Errorf("8K fraction = %d of %d\n%v", len8k, s.Commands, s.Histogram(core.MetricIOLength, core.All).Counts)
	}
	// Figure 4(c): writes arrive with deep queues (checkpointer bursts at
	// depth 32), reads shallow (most of the time no burst is running).
	wOIO := s.Histogram(core.MetricOutstanding, core.Writes)
	rOIO := s.Histogram(core.MetricOutstanding, core.Reads)
	if got := wOIO.Percentile(75); got < 16 {
		t.Errorf("write OIO p75 = %d, want >= 16 (depth-32 bursts)", got)
	}
	if wOIO.Max < 30 {
		t.Errorf("write OIO max = %d, want ~32", wOIO.Max)
	}
	if got := rOIO.Percentile(50); got > 12 {
		t.Errorf("read OIO p50 = %d, want shallow (<= 12)", got)
	}
	// Figure 4(a): bursts of spatial locality among writes (the hot
	// region): a visible share of write seeks within 5000 sectors.
	var near int64
	sw := s.Histogram(core.MetricSeekDistance, core.Writes)
	for i := range sw.Counts {
		lo, hi := sw.BinRange(i)
		if lo >= -5001 && hi <= 5000 {
			near += sw.Counts[i]
		}
	}
	if frac := float64(near) / float64(sw.Total); frac < 0.08 {
		t.Errorf("write locality fraction = %.2f, want >= 0.08 (paper: ~33%% within 5000)", frac)
	}
	txns, byType := d.Transactions()
	if txns == 0 || byType["new-order"] == 0 {
		t.Errorf("transactions: %d %v", txns, byType)
	}
}

func TestFileCopyXPvsVistaSizes(t *testing.T) {
	for _, tc := range []struct {
		cfg      fs.PlainConfig
		copyCfg  FileCopyConfig
		wantSize string
	}{
		{fs.NTFSXPConfig(), XPCopyConfig(64 << 20), "65536"},
		{fs.NTFSVistaConfig(), VistaCopyConfig(64 << 20), ">524288"},
	} {
		r := newWLRig(t, simclock.Millisecond, 1<<27)
		ntfs := fs.NewPlain(r.eng, r.disk, tc.cfg)
		fc := NewFileCopy(r.eng, ntfs, tc.copyCfg)
		if err := fc.Setup(); err != nil {
			t.Fatal(err)
		}
		fc.Start()
		r.eng.RunUntil(10 * simclock.Second)
		fc.Stop()
		s := r.col.Snapshot()
		if s.Commands == 0 {
			t.Fatalf("%s: no I/O", tc.cfg.Type)
		}
		dom := binCount(s, core.MetricIOLength, core.All, tc.wantSize)
		if float64(dom)/float64(s.Commands) < 0.8 {
			t.Errorf("%s: bin %s holds %d of %d\n%v", tc.cfg.Type, tc.wantSize,
				dom, s.Commands, s.Histogram(core.MetricIOLength, core.All).Counts)
		}
	}
}

func TestFileCopyVistaFewerCommandsThanXP(t *testing.T) {
	run := func(pcfg fs.PlainConfig, ccfg FileCopyConfig) int64 {
		r := newWLRig(t, simclock.Millisecond, 1<<27)
		ntfs := fs.NewPlain(r.eng, r.disk, pcfg)
		fc := NewFileCopy(r.eng, ntfs, ccfg)
		if err := fc.Setup(); err != nil {
			t.Fatal(err)
		}
		fc.Start()
		r.eng.RunUntil(10 * simclock.Second)
		fc.Stop()
		return r.col.Snapshot().Commands
	}
	xp := run(fs.NTFSXPConfig(), XPCopyConfig(64<<20))
	vista := run(fs.NTFSVistaConfig(), VistaCopyConfig(64<<20))
	// "the number of commands is lower" for Vista (Figure 5).
	if vista*4 > xp {
		t.Errorf("vista commands %d should be <<< xp commands %d", vista, xp)
	}
}

func TestFileCopyCompletesAndLoops(t *testing.T) {
	r := newWLRig(t, 100*simclock.Microsecond, 1<<27)
	ntfs := fs.NewPlain(r.eng, r.disk, fs.NTFSXPConfig())
	fc := NewFileCopy(r.eng, ntfs, FileCopyConfig{
		FileBytes: 1 << 20, ChunkBytes: 64 << 10, Pipeline: 2, Loop: false})
	if err := fc.Setup(); err != nil {
		t.Fatal(err)
	}
	fc.Start()
	r.eng.RunUntil(20 * simclock.Second)
	if fc.copies != 1 {
		t.Errorf("copies = %d, want 1 (Loop=false)", fc.copies)
	}
	if got := fc.Stats().Ops; got != 16 {
		t.Errorf("chunk ops = %d, want 16", got)
	}
}

func TestIometerMaintainsOutstanding(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	im := NewIometer(r.eng, r.disk, FourKSeqRead(8))
	im.Start()
	if r.disk.Inflight() != 8 {
		t.Fatalf("Inflight after Start = %d, want 8", r.disk.Inflight())
	}
	r.eng.RunUntil(simclock.Second)
	im.Stop()
	r.eng.Run()
	s := r.col.Snapshot()
	// OIO at arrival is 7 for nearly every I/O after the ramp.
	oio := s.Histogram(core.MetricOutstanding, core.All)
	if oio.Max != 7 {
		t.Errorf("max OIO at arrival = %d, want 7", oio.Max)
	}
	// Sequential: all seeks distance 1.
	seq := binCount(s, core.MetricSeekDistance, core.All, "2")
	if float64(seq)/float64(s.Histogram(core.MetricSeekDistance, core.All).Total) < 0.99 {
		t.Errorf("sequential fraction too low:\n%v", s.Histogram(core.MetricSeekDistance, core.All).Counts)
	}
	if im.Stats().Ops < 900 {
		t.Errorf("ops = %d, want ~1000 at 1ms latency, depth 8", im.Stats().Ops)
	}
}

func TestIometerRandomSpread(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	im := NewIometer(r.eng, r.disk, EightKRandomRead())
	im.Start()
	r.eng.RunUntil(simclock.Second)
	im.Stop()
	r.eng.Run()
	s := r.col.Snapshot()
	sd := s.Histogram(core.MetricSeekDistance, core.All)
	far := sd.Counts[0] + sd.Counts[1] + sd.Counts[len(sd.Counts)-1] + sd.Counts[len(sd.Counts)-2]
	if float64(far)/float64(sd.Total) < 0.5 {
		t.Errorf("random spread too local:\n%v", sd.Counts)
	}
}

func TestIometerRegionRestriction(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	spec := EightKRandomRead()
	spec.RegionSectors = 4096
	im := NewIometer(r.eng, r.disk, spec)
	im.Start()
	r.eng.RunUntil(200 * simclock.Millisecond)
	im.Stop()
	r.eng.Run()
	s := r.col.Snapshot()
	// Max seek distance can't exceed the region.
	if s.Histogram(core.MetricSeekDistance, core.All).Max > 4096 || s.Histogram(core.MetricSeekDistance, core.All).Min < -4096 {
		t.Errorf("seeks escaped region: min=%d max=%d",
			s.Histogram(core.MetricSeekDistance, core.All).Min, s.Histogram(core.MetricSeekDistance, core.All).Max)
	}
}

func TestIometerWriteMix(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	im := NewIometer(r.eng, r.disk, AccessSpec{
		Name: "mix", BlockBytes: 4096, ReadPct: 50, RandomPct: 100,
		Outstanding: 4, Seed: 9})
	im.Start()
	r.eng.RunUntil(simclock.Second)
	im.Stop()
	r.eng.Run()
	s := r.col.Snapshot()
	frac := s.ReadFraction()
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("read fraction = %.2f, want ~0.5", frac)
	}
}

func TestIometerValidation(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	bad := []AccessSpec{
		{BlockBytes: 0, Outstanding: 1},
		{BlockBytes: 1000, Outstanding: 1},
		{BlockBytes: 4096, Outstanding: 0},
		{BlockBytes: 4096, Outstanding: 1, ReadPct: 200},
	}
	for i, spec := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("spec %d should panic", i)
				}
			}()
			NewIometer(r.eng, r.disk, spec)
		}()
	}
}

func TestGeneratorStatsHelpers(t *testing.T) {
	s := Stats{Ops: 100, Bytes: 400 << 10, TotalLatency: 100 * simclock.Millisecond}
	if s.MeanLatency() != simclock.Millisecond {
		t.Errorf("MeanLatency = %v", s.MeanLatency())
	}
	if got := s.Rate(simclock.Second); got != 100 {
		t.Errorf("Rate = %v", got)
	}
	if got := s.Throughput(simclock.Second); got != 400<<10 {
		t.Errorf("Throughput = %v", got)
	}
	var zero Stats
	if zero.MeanLatency() != 0 || zero.Rate(0) != 0 || zero.Throughput(-1) != 0 {
		t.Error("zero stats helpers should be 0")
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestWebServerPersonalityReadsDominate(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<27)
	ufs := fs.NewPlain(r.eng, r.disk, fs.UFSConfig())
	fb := NewFilebench(r.eng, ufs, WebServerModel(512<<20), 3)
	if err := fb.Setup(); err != nil {
		t.Fatal(err)
	}
	fb.Start()
	r.eng.RunUntil(10 * simclock.Second)
	fb.Stop()
	s := r.col.Snapshot()
	if s.Commands < 500 {
		t.Fatalf("commands: %d", s.Commands)
	}
	// The disk-level read share depends on guest cache hits; it must stay
	// at least balanced-to-read-leaning.
	if frac := s.ReadFraction(); frac < 0.5 {
		t.Errorf("webserver read fraction = %.2f, want >= 0.5", frac)
	}
}

func TestVarmailPersonalityWriteHeavySmallIOs(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<27)
	ufs := fs.NewPlain(r.eng, r.disk, fs.UFSConfig())
	fb := NewFilebench(r.eng, ufs, VarmailModel(256<<20), 3)
	if err := fb.Setup(); err != nil {
		t.Fatal(err)
	}
	fb.Start()
	r.eng.RunUntil(10 * simclock.Second)
	fb.Stop()
	s := r.col.Snapshot()
	if s.Commands < 200 {
		t.Fatalf("commands: %d", s.Commands)
	}
	if s.NumWrites == 0 || s.Histogram(core.MetricIOLength, core.All).Max > 64<<10 {
		t.Errorf("varmail shape: writes=%d maxIO=%d", s.NumWrites, s.Histogram(core.MetricIOLength, core.All).Max)
	}
	if fb.Stats().Errors != 0 {
		t.Errorf("errors: %d", fb.Stats().Errors)
	}
}

func TestFlowOpRateThrottles(t *testing.T) {
	// One thread, rate=50: ~50 reads/second regardless of device speed.
	r := newWLRig(t, 100*simclock.Microsecond, 1<<24)
	ufs := fs.NewPlain(r.eng, r.disk, fs.UFSConfig())
	m := MustParseModel(`
define file name=a,size=16m
define process name=p {
  thread name=t {
    flowop read name=rd,file=a,iosize=8k,random,rate=50
  }
}
`)
	fb := NewFilebench(r.eng, ufs, m, 4)
	if err := fb.Setup(); err != nil {
		t.Fatal(err)
	}
	fb.Start()
	r.eng.RunUntil(10 * simclock.Second)
	fb.Stop()
	ops := fb.Stats().Ops
	if ops < 400 || ops > 600 {
		t.Errorf("rate=50 over 10s produced %d ops, want ~500", ops)
	}
}

func TestIometerTimeoutAborts(t *testing.T) {
	// Device latency 50ms, timeout 10ms: every command aborts, the window
	// keeps refilling, and errors accumulate.
	r := newWLRig(t, 50*simclock.Millisecond, 1<<24)
	spec := EightKRandomRead()
	spec.Outstanding = 4
	spec.Timeout = 10 * simclock.Millisecond
	im := NewIometer(r.eng, r.disk, spec)
	im.Start()
	r.eng.RunUntil(simclock.Second)
	im.Stop()
	r.eng.Run()
	st := im.Stats()
	if st.Errors == 0 {
		t.Fatal("no aborts recorded")
	}
	if st.Errors < st.Ops/2 {
		t.Errorf("expected mostly aborts: %d errors of %d ops", st.Errors, st.Ops)
	}
	// Mean observed latency is bounded by the timeout (plus scheduling).
	if got := st.MeanLatency(); got > 12*simclock.Millisecond {
		t.Errorf("mean latency %v exceeds timeout bound", got)
	}
}

// TestIometerCancelsAbortTimers: with the timeout well above the device
// latency no command ever times out, and each command's abort timer must
// leave the engine when the command completes — not sit there for Timeout
// and then abort whichever later command the disk reused the Request for.
func TestIometerCancelsAbortTimers(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	spec := EightKRandomRead()
	spec.Outstanding = 4
	spec.Timeout = 10 * simclock.Millisecond
	im := NewIometer(r.eng, r.disk, spec)
	im.Start()
	peak := 0
	for r.eng.Now() < simclock.Second && r.eng.Step() {
		if p := r.eng.Pending(); p > peak {
			peak = p
		}
	}
	im.Stop()
	r.eng.Run()
	st := im.Stats()
	if st.Ops < 3000 {
		t.Fatalf("only %d ops in a second at 1ms latency, depth 4", st.Ops)
	}
	if st.Errors != 0 || r.disk.Errored() != 0 {
		t.Errorf("%d generator errors, %d disk errors: a stale timer aborted a live command",
			st.Errors, r.disk.Errored())
	}
	// One completion event and one timer per outstanding command.
	if limit := 2*spec.Outstanding + 1; peak > limit {
		t.Errorf("engine held up to %d events, want <= %d: dead timers pile up", peak, limit)
	}
}

func TestExponentialDelaysSpreadInterarrivals(t *testing.T) {
	// Fixed delays give a near-constant inter-arrival histogram;
	// exponential delays with the same mean spread it widely.
	run := func(flag string) *core.Snapshot {
		r := newWLRig(t, 10*simclock.Microsecond, 1<<24)
		ufs := fs.NewPlain(r.eng, r.disk, fs.UFSConfig())
		m := MustParseModel(`
define file name=a,size=64m
define process name=p {
  thread name=t {
    flowop read name=rd,file=a,iosize=8k,random
    flowop delay name=d,value=5ms` + flag + `
  }
}
`)
		fb := NewFilebench(r.eng, ufs, m, 11)
		if err := fb.Setup(); err != nil {
			t.Fatal(err)
		}
		fb.Start()
		r.eng.RunUntil(20 * simclock.Second)
		fb.Stop()
		return r.col.Snapshot()
	}
	fixed := run("")
	expo := run(",exponential")
	fIA := fixed.Histogram(core.MetricInterarrival, core.All)
	eIA := expo.Histogram(core.MetricInterarrival, core.All)
	fixedSpread := fIA.Max - fIA.Min
	expoSpread := eIA.Max - eIA.Min
	if expoSpread <= fixedSpread {
		t.Errorf("exponential spread %d should exceed fixed spread %d", expoSpread, fixedSpread)
	}
	// Means stay comparable (same 5ms budget).
	if eIA.Mean() < fIA.Mean()/2 || eIA.Mean() > fIA.Mean()*2 {
		t.Errorf("means diverged: fixed %.0f vs exponential %.0f", fIA.Mean(), eIA.Mean())
	}
}
