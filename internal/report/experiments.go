package report

import (
	"fmt"

	"vscsistats/internal/core"
	"vscsistats/internal/fs"
	"vscsistats/internal/histogram"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/workload"
)

// filebenchRun executes the Filebench OLTP personality (§4.1) on the given
// filesystem factory and returns the collector snapshot.
func filebenchRun(opts Options, mkFS func(*simclock.Engine, *hypervisor.Vdisk) fs.FS) (*core.Snapshot, error) {
	eng := simclock.NewEngine()
	host := hypervisor.NewHost(eng)
	host.AddDatastore("sym", storage.SymmetrixConfig(opts.Seed))
	vm := host.CreateVM("solaris")
	vd, err := vm.AddDisk(hypervisor.DiskSpec{
		Name: "scsi0:0", Datastore: "sym",
		// Generous headroom for ZFS copy-on-write churn.
		CapacitySectors: uint64(4 * opts.DataBytes / 512),
	})
	if err != nil {
		return nil, err
	}
	fsys := mkFS(eng, vd)
	model := workload.OLTPModel(opts.DataBytes, opts.DataBytes/10)
	fb := workload.NewFilebench(eng, fsys, model, opts.Seed)
	if err := fb.Setup(); err != nil {
		return nil, err
	}
	fb.Start()
	// Warm up before enabling stats so the figures show steady state.
	warm := opts.Duration / 6
	eng.RunUntil(warm)
	vd.Collector.Enable()
	eng.RunUntil(warm + opts.Duration)
	fb.Stop()
	return vd.Collector.Snapshot(), nil
}

// Fig2FilebenchUFS regenerates Figure 2: Filebench OLTP on Solaris UFS —
// I/O length and the all/writes/reads seek-distance histograms.
func Fig2FilebenchUFS(opts Options) (*Result, error) {
	s, err := filebenchRun(opts, func(eng *simclock.Engine, vd *hypervisor.Vdisk) fs.FS {
		return fs.NewPlain(eng, vd.Disk, fs.UFSConfig())
	})
	if err != nil {
		return nil, err
	}
	r := newResult("fig2", "Filebench OLTP: Solaris on UFS")
	r.notef("%d commands (%d reads / %d writes, %.0f%% reads)",
		s.Commands, s.NumReads, s.NumWrites, 100*s.ReadFraction())
	r.notef("I/O sizes stay at application granularity: 4 KB and 8 KB bins hold %.0f%% of I/Os",
		100*(binFrac(s, core.MetricIOLength, core.All, "4096")+
			binFrac(s, core.MetricIOLength, core.All, "8192")+
			binFrac(s, core.MetricIOLength, core.All, "4095")+
			binFrac(s, core.MetricIOLength, core.All, "8191")))
	r.notef("workload is random: %.0f%% of seeks beyond 50000 sectors (spikes at graph edges)",
		100*farFraction(s, core.All))
	r.notef("fingerprint: %s", core.FingerprintOf(s))
	addFigure23Charts(r, s)
	return r, nil
}

// Fig3FilebenchZFS regenerates Figure 3: the same OLTP workload on ZFS.
func Fig3FilebenchZFS(opts Options) (*Result, error) {
	s, err := filebenchRun(opts, func(eng *simclock.Engine, vd *hypervisor.Vdisk) fs.FS {
		return fs.NewZFS(eng, vd.Disk, fs.DefaultZFSConfig())
	})
	if err != nil {
		return nil, err
	}
	r := newResult("fig3", "Filebench OLTP: Solaris on ZFS")
	r.notef("%d commands (%d reads / %d writes)", s.Commands, s.NumReads, s.NumWrites)
	r.notef("ZFS amplifies I/O: %.0f%% of all I/Os fall in the 80-128 KB bins (record-sized)",
		100*(binFrac(s, core.MetricIOLength, core.All, "81920")+
			binFrac(s, core.MetricIOLength, core.All, "131072")))
	r.notef("COW turns random application writes sequential: %.0f%% of write seeks in the 0/2 bins vs %.0f%% for reads",
		100*seqFraction2(s, core.Writes), 100*seqFraction2(s, core.Reads))
	r.notef("reads remain random: %.0f%% of read seeks beyond 50000 sectors", 100*farFraction(s, core.Reads))
	r.notef("fingerprint: %s", core.FingerprintOf(s))
	addFigure23Charts(r, s)
	return r, nil
}

func addFigure23Charts(r *Result, s *core.Snapshot) {
	r.addChart("(a) I/O Length Histogram", s.Histogram(core.MetricIOLength, core.All).Render(50))
	r.addChart("(b) Seek Distance Histogram", s.Histogram(core.MetricSeekDistance, core.All).Render(50))
	r.addChart("(c) Seek Distance Histogram (Writes)", s.Histogram(core.MetricSeekDistance, core.Writes).Render(50))
	r.addChart("(d) Seek Distance Histogram (Reads)", s.Histogram(core.MetricSeekDistance, core.Reads).Render(50))
	r.CSVs["io_length"] = s.Histogram(core.MetricIOLength, core.All).CSV()
	r.CSVs["seek"] = s.Histogram(core.MetricSeekDistance, core.All).CSV()
	r.CSVs["seek_writes"] = s.Histogram(core.MetricSeekDistance, core.Writes).CSV()
	r.CSVs["seek_reads"] = s.Histogram(core.MetricSeekDistance, core.Reads).CSV()
}

// Fig4DBT2 regenerates Figure 4: DBT-2/PostgreSQL on Linux ext3 — write
// seek distances, I/O lengths, outstanding I/Os by op class, and the
// outstanding-I/Os-over-time surface at 6-second intervals.
func Fig4DBT2(opts Options) (*Result, error) {
	eng := simclock.NewEngine()
	host := hypervisor.NewHost(eng)
	host.AddDatastore("sym", storage.SymmetrixConfig(opts.Seed))
	vm := host.CreateVM("ubuntu")
	vd, err := vm.AddDisk(hypervisor.DiskSpec{
		Name: "scsi0:0", Datastore: "sym",
		CapacitySectors: uint64(3 * opts.DataBytes / 512),
	})
	if err != nil {
		return nil, err
	}
	ext3 := fs.NewPlain(eng, vd.Disk, fs.Ext3Config())
	cfg := workload.DefaultDBT2Config()
	cfg.DatabaseBytes = opts.DataBytes
	cfg.WALBytes = opts.DataBytes / 8
	cfg.Seed = opts.Seed
	cfg.CheckpointInterval = 10 * simclock.Second
	d := workload.NewDBT2(eng, ext3, cfg)
	if err := d.Setup(); err != nil {
		return nil, err
	}
	d.Start()
	warm := opts.Duration / 6
	eng.RunUntil(warm)
	vd.Collector.Enable()
	rec := core.NewIntervalRecorder(eng, vd.Collector, 6*simclock.Second)
	eng.RunUntil(warm + opts.Duration)
	rec.Stop()
	d.Stop()
	s := vd.Collector.Snapshot()

	r := newResult("fig4", "DBT-2 (PostgreSQL) on Linux ext3")
	txns, _ := d.Transactions()
	r.notef("%d commands over %v; %d transactions committed", s.Commands, opts.Duration, txns)
	r.notef("almost exclusively 8 KB: %.0f%% of I/Os in the 8192 bin",
		100*binFrac(s, core.MetricIOLength, core.All, "8192"))
	near := nearFrac(s, core.Writes, 5000)
	r.notef("write seeks show bursts of locality: %.0f%% within 5000 sectors, rest random spikes",
		100*near)
	r.notef("outstanding I/Os: writes arrive ~%d deep (checkpointer), reads ~%.1f mean",
		s.Histogram(core.MetricOutstanding, core.Writes).Percentile(90), s.Histogram(core.MetricOutstanding, core.Reads).Mean())
	rates := rec.Rates()
	lo, hi := minMax(rates)
	if lo > 0 {
		r.notef("I/O rate varies %.0f%% across 6-second intervals (%d..%d cmds/interval)",
			100*float64(hi-lo)/float64(hi), lo, hi)
	}
	r.addChart("(a) Seek Distance Histogram (Writes)", s.Histogram(core.MetricSeekDistance, core.Writes).Render(50))
	r.addChart("(b) I/O Length Histogram", s.Histogram(core.MetricIOLength, core.All).Render(50))
	r.addChart("(c) Outstanding I/Os Histogram (Reads, Writes)",
		histogram.RenderCompare("Outstanding I/Os at arrival",
			renamed(s.Histogram(core.MetricOutstanding, core.Reads), "Reads"),
			renamed(s.Histogram(core.MetricOutstanding, core.Writes), "Writes")))
	series := rec.Series(core.MetricOutstanding, core.All)
	r.addChart("(d) Outstanding I/Os Histogram over Time", series.Heatmap()+"\n"+series.String())
	r.CSVs["seek_writes"] = s.Histogram(core.MetricSeekDistance, core.Writes).CSV()
	r.CSVs["io_length"] = s.Histogram(core.MetricIOLength, core.All).CSV()
	r.CSVs["oio"] = histogram.CompareCSV(
		renamed(s.Histogram(core.MetricOutstanding, core.Reads), "Reads"),
		renamed(s.Histogram(core.MetricOutstanding, core.Writes), "Writes"))
	r.CSVs["oio_over_time"] = series.CSV()
	return r, nil
}

// Fig5FileCopy regenerates Figure 5: large file copy on Windows XP (64 KB
// engine) versus Vista (1 MB engine) — latency, length and seek histograms
// overlaid.
func Fig5FileCopy(opts Options) (*Result, error) {
	run := func(pcfg fs.PlainConfig, ccfg workload.FileCopyConfig) (*core.Snapshot, error) {
		eng := simclock.NewEngine()
		host := hypervisor.NewHost(eng)
		host.AddDatastore("sym", storage.SymmetrixConfig(opts.Seed))
		vm := host.CreateVM("windows")
		vd, err := vm.AddDisk(hypervisor.DiskSpec{
			Name: "scsi0:0", Datastore: "sym",
			CapacitySectors: uint64(4 * ccfg.FileBytes / 512),
		})
		if err != nil {
			return nil, err
		}
		ntfs := fs.NewPlain(eng, vd.Disk, pcfg)
		fc := workload.NewFileCopy(eng, ntfs, ccfg)
		if err := fc.Setup(); err != nil {
			return nil, err
		}
		vd.Collector.Enable()
		fc.Start()
		// "Large File Copy: 10 sec duration" — a fixed observation window.
		eng.RunUntil(10 * simclock.Second)
		fc.Stop()
		return vd.Collector.Snapshot(), nil
	}
	fileBytes := opts.DataBytes / 4
	xp, err := run(fs.NTFSXPConfig(), workload.XPCopyConfig(fileBytes))
	if err != nil {
		return nil, err
	}
	vista, err := run(fs.NTFSVistaConfig(), workload.VistaCopyConfig(fileBytes))
	if err != nil {
		return nil, err
	}
	r := newResult("fig5", "Large File Copy: Windows XP vs Vista (10 s)")
	r.notef("XP issued %d commands, Vista %d — larger I/Os mean fewer commands",
		xp.Commands, vista.Commands)
	r.notef("dominant size: XP %.0f%% at 64 KB; Vista %.0f%% at 1 MB",
		100*binFrac(xp, core.MetricIOLength, core.All, "65536"),
		100*binFrac(vista, core.MetricIOLength, core.All, ">524288"))
	r.notef("latency follows size: XP mean %.0f us, Vista mean %.0f us",
		xp.Histogram(core.MetricLatency, core.All).Mean(), vista.Histogram(core.MetricLatency, core.All).Mean())
	r.notef("seeking: XP performed %.0f far seeks (>50000 sectors) vs Vista's %.0f — larger I/Os mean far fewer head movements for the same data",
		farFraction(xp, core.All)*float64(xp.Histogram(core.MetricSeekDistance, core.All).Total),
		farFraction(vista, core.All)*float64(vista.Histogram(core.MetricSeekDistance, core.All).Total))
	r.addChart("(a) I/O Latency Histogram", histogram.RenderCompare("Latency (us)",
		renamed(vista.Histogram(core.MetricLatency, core.All), "Vista Enterprise"),
		renamed(xp.Histogram(core.MetricLatency, core.All), "XP Pro")))
	r.addChart("(b) I/O Length Histogram", histogram.RenderCompare("Length (bytes)",
		renamed(vista.Histogram(core.MetricIOLength, core.All), "Vista Enterprise"),
		renamed(xp.Histogram(core.MetricIOLength, core.All), "XP Pro")))
	r.addChart("(c) Seek Distance Histogram", histogram.RenderCompare("Distance (sectors)",
		renamed(vista.Histogram(core.MetricSeekDistance, core.All), "Vista Enterprise"),
		renamed(xp.Histogram(core.MetricSeekDistance, core.All), "XP Pro")))
	r.CSVs["latency"] = histogram.CompareCSV(
		renamed(vista.Histogram(core.MetricLatency, core.All), "Vista Enterprise"),
		renamed(xp.Histogram(core.MetricLatency, core.All), "XP Pro"))
	r.CSVs["io_length"] = histogram.CompareCSV(
		renamed(vista.Histogram(core.MetricIOLength, core.All), "Vista Enterprise"),
		renamed(xp.Histogram(core.MetricIOLength, core.All), "XP Pro"))
	r.CSVs["seek"] = histogram.CompareCSV(
		renamed(vista.Histogram(core.MetricSeekDistance, core.All), "Vista Enterprise"),
		renamed(xp.Histogram(core.MetricSeekDistance, core.All), "XP Pro"))
	return r, nil
}

// MultiVMResult carries Figure 6's headline interference numbers alongside
// the rendered result.
type MultiVMResult struct {
	*Result
	// Latency means in µs and IOps for each phase.
	RandSoloLatency, RandDualLatency float64
	SeqSoloLatency, SeqDualLatency   float64
	RandSoloIOps, RandDualIOps       float64
	SeqSoloIOps, SeqDualIOps         float64
}

// Fig6MultiVM regenerates Figure 6: an 8 KB random reader and an 8 KB
// sequential reader on separate virtual disks of the same cache-disabled
// CX3 array, solo and together, plus the sequential reader's latency
// histogram over time as the random workload switches on mid-run.
func Fig6MultiVM(opts Options) (*MultiVMResult, error) {
	cfg := storage.CX3NoCacheConfig(opts.Seed)
	p, err := runColocated(cfg, opts)
	if err != nil {
		return nil, err
	}
	randSolo, seqSolo, randDual, seqDual, dur := p.randSolo, p.seqSolo, p.randDual, p.seqDual, p.dur

	m := &MultiVMResult{Result: newResult("fig6", "Multi-VM interference on CX3 with read cache off")}
	secs := dur.Seconds()
	m.RandSoloLatency = meanLatency(randSolo)
	m.RandDualLatency = meanLatency(randDual)
	m.SeqSoloLatency = meanLatency(seqSolo)
	m.SeqDualLatency = meanLatency(seqDual)
	m.RandSoloIOps = float64(randSolo.Commands) / secs
	m.RandDualIOps = float64(randDual.Commands) / secs
	m.SeqSoloIOps = float64(seqSolo.Commands) / secs
	m.SeqDualIOps = float64(seqDual.Commands) / secs
	m.notef("8K sequential reader: latency %.0f -> %.0f us (%.1fx), IOps %.0f -> %.0f (%.0f%% loss)",
		m.SeqSoloLatency, m.SeqDualLatency, ratio(m.SeqDualLatency, m.SeqSoloLatency),
		m.SeqSoloIOps, m.SeqDualIOps, 100*(1-m.SeqDualIOps/m.SeqSoloIOps))
	m.notef("8K random reader:     latency %.0f -> %.0f us (%.1fx), IOps %.0f -> %.0f (%.0f%% loss)",
		m.RandSoloLatency, m.RandDualLatency, ratio(m.RandDualLatency, m.RandSoloLatency),
		m.RandSoloIOps, m.RandDualIOps, 100*(1-m.RandDualIOps/m.RandSoloIOps))
	m.notef("the sequential workload suffers far more: its device-dependent characteristics changed, its device-independent ones did not (§3.7)")
	m.addChart("(a) I/O Latency Histogram (8K Random Reader)",
		histogram.RenderCompare("Latency (us)",
			renamed(randSolo.Histogram(core.MetricLatency, core.All), "Solo VM"),
			renamed(randDual.Histogram(core.MetricLatency, core.All), "Dual VM")))
	m.addChart("(b) I/O Latency Histogram (8K Sequential Reader)",
		histogram.RenderCompare("Latency (us)",
			renamed(seqSolo.Histogram(core.MetricLatency, core.All), "Solo VM"),
			renamed(seqDual.Histogram(core.MetricLatency, core.All), "Dual VM")))
	m.CSVs["latency_random"] = histogram.CompareCSV(
		renamed(randSolo.Histogram(core.MetricLatency, core.All), "Solo VM"),
		renamed(randDual.Histogram(core.MetricLatency, core.All), "Dual VM"))
	m.CSVs["latency_sequential"] = histogram.CompareCSV(
		renamed(seqSolo.Histogram(core.MetricLatency, core.All), "Solo VM"),
		renamed(seqDual.Histogram(core.MetricLatency, core.All), "Dual VM"))

	// (c) latency histogram over time: the random VM runs only during the
	// middle third of the sequential VM's run.
	eng, vdR, vdS, err := colocated(cfg)
	if err != nil {
		return nil, err
	}
	vdS.Collector.Enable()
	seqGen := workload.NewIometer(eng, vdS.Disk, workload.EightKSeqRead())
	randGen := workload.NewIometer(eng, vdR.Disk, workload.EightKRandomRead())
	seqGen.Start()
	total := 3 * dur
	rec := core.NewIntervalRecorder(eng, vdS.Collector, total/20)
	eng.At(total/3, func(simclock.Time) { randGen.Start() })
	eng.At(2*total/3, func(simclock.Time) { randGen.Stop() })
	eng.RunUntil(total)
	rec.Stop()
	series := rec.Series(core.MetricLatency, core.All)
	m.addChart("(c) I/O Latency Histogram over Time (8K Sequential Reader)", series.Heatmap()+"\n"+series.String())
	m.CSVs["latency_over_time"] = series.CSV()
	return m, nil
}

// colocated builds Figure 6's testbed on one array: two 6 GB virtual disks
// (§5.3), the random reader's and then the sequential reader's.
func colocated(cfg storage.ArrayConfig) (eng *simclock.Engine, randVD, seqVD *hypervisor.Vdisk, err error) {
	const diskSectors = 6 << 21
	eng = simclock.NewEngine()
	host := hypervisor.NewHost(eng)
	host.AddDatastore("array", cfg)
	randVD, err = host.CreateVM("rand-vm").AddDisk(hypervisor.DiskSpec{Name: "scsi0:0", Datastore: "array", CapacitySectors: diskSectors})
	if err != nil {
		return nil, nil, nil, err
	}
	seqVD, err = host.CreateVM("seq-vm").AddDisk(hypervisor.DiskSpec{Name: "scsi0:0", Datastore: "array", CapacitySectors: diskSectors})
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, randVD, seqVD, nil
}

// colocatedPhases are Figure 6's three runs on one array, each on a fresh
// testbed for dur: the random reader alone, the sequential reader alone,
// and both together.
type colocatedPhases struct {
	randSolo, seqSolo, randDual, seqDual *core.Snapshot
	dur                                  simclock.Time
}

// runColocated runs Figure 6's phases on cfg, each for half the run but at
// least 10 s.
func runColocated(cfg storage.ArrayConfig, opts Options) (*colocatedPhases, error) {
	p := &colocatedPhases{dur: max(opts.Duration/2, 10*simclock.Second)}
	phase := func(rand, seq bool) (randS, seqS *core.Snapshot, err error) {
		eng, vdR, vdS, err := colocated(cfg)
		if err != nil {
			return nil, nil, err
		}
		vdR.Collector.Enable()
		vdS.Collector.Enable()
		if rand {
			workload.NewIometer(eng, vdR.Disk, workload.EightKRandomRead()).Start()
		}
		if seq {
			workload.NewIometer(eng, vdS.Disk, workload.EightKSeqRead()).Start()
		}
		eng.RunUntil(p.dur)
		return vdR.Collector.Snapshot(), vdS.Collector.Snapshot(), nil
	}
	var err error
	if p.randSolo, _, err = phase(true, false); err != nil {
		return nil, err
	}
	if _, p.seqSolo, err = phase(false, true); err != nil {
		return nil, err
	}
	if p.randDual, p.seqDual, err = phase(true, true); err != nil {
		return nil, err
	}
	return p, nil
}

func meanLatency(s *core.Snapshot) float64 {
	return s.Histogram(core.MetricLatency, core.All).Mean()
}

// CacheSweepResult holds §5.3's intermediate results: the same dual-VM
// experiment on progressively weaker caches.
type CacheSweepResult struct {
	*Result
	// SeqIncrease and RandIncrease are dual/solo latency ratios per array.
	SeqIncrease  map[string]float64
	RandIncrease map[string]float64
}

// CacheSweep reruns the Figure 6 workloads on the Symmetrix (huge cache),
// the CX3 with its 2.5 GB cache, and the CX3 with cache off, reproducing
// §5.3's narrative: no visible change, moderate degradation (+44% / +17%),
// extreme worst case.
func CacheSweep(opts Options) (*CacheSweepResult, error) {
	arrays := []struct {
		name string
		cfg  storage.ArrayConfig
	}{
		{"symmetrix", storage.SymmetrixConfig(opts.Seed)},
		{"cx3-cached", storage.CX3Config(opts.Seed)},
		{"cx3-nocache", storage.CX3NoCacheConfig(opts.Seed)},
	}
	out := &CacheSweepResult{
		Result:       newResult("cachesweep", "Multi-VM interference vs array cache (§5.3)"),
		SeqIncrease:  map[string]float64{},
		RandIncrease: map[string]float64{},
	}
	for _, arr := range arrays {
		p, err := runColocated(arr.cfg, opts)
		if err != nil {
			return nil, err
		}
		out.SeqIncrease[arr.name] = ratio(meanLatency(p.seqDual), meanLatency(p.seqSolo))
		out.RandIncrease[arr.name] = ratio(meanLatency(p.randDual), meanLatency(p.randSolo))
		out.notef("%-12s sequential latency x%.2f, random latency x%.2f when colocated",
			arr.name, out.SeqIncrease[arr.name], out.RandIncrease[arr.name])
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minMax(v []int64) (lo, hi int64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

func binFrac(s *core.Snapshot, m core.Metric, cl core.Class, label string) float64 {
	h := s.Histogram(m, cl)
	if h == nil || h.Total == 0 {
		return 0
	}
	for i := range h.Counts {
		if h.BinLabel(i) == label {
			return float64(h.Counts[i]) / float64(h.Total)
		}
	}
	return 0
}

// seqFraction2 counts the 0/2 bins of the class's seek histogram.
func seqFraction2(s *core.Snapshot, cl core.Class) float64 {
	h := s.Histogram(core.MetricSeekDistance, cl)
	if h.Total == 0 {
		return 0
	}
	var n int64
	for i := range h.Counts {
		if l := h.BinLabel(i); l == "0" || l == "2" || l == "6" || l == "16" {
			n += h.Counts[i]
		}
	}
	return float64(n) / float64(h.Total)
}

// nearFrac is the share of the class's seeks within +-sectors.
func nearFrac(s *core.Snapshot, cl core.Class, sectors int64) float64 {
	h := s.Histogram(core.MetricSeekDistance, cl)
	if h.Total == 0 {
		return 0
	}
	var n int64
	for i := range h.Counts {
		lo, hi := h.BinRange(i)
		if lo >= -sectors-1 && hi <= sectors {
			n += h.Counts[i]
		}
	}
	return float64(n) / float64(h.Total)
}

// renamed clones a snapshot under a display name for comparison charts.
func renamed(s *histogram.Snapshot, name string) *histogram.Snapshot {
	c := s.Clone()
	c.Name = name
	return c
}

// All runs every experiment at the given options, in paper order.
func All(opts Options) ([]*Result, error) {
	var out []*Result
	steps := []func() (*Result, error){
		func() (*Result, error) { return Fig2FilebenchUFS(opts) },
		func() (*Result, error) { return Fig3FilebenchZFS(opts) },
		func() (*Result, error) { return Fig4DBT2(opts) },
		func() (*Result, error) { return Fig5FileCopy(opts) },
		func() (*Result, error) {
			m, err := Fig6MultiVM(opts)
			if err != nil {
				return nil, err
			}
			return m.Result, nil
		},
		func() (*Result, error) { return Table2Overhead(opts) },
		func() (*Result, error) {
			c, err := CacheSweep(opts)
			if err != nil {
				return nil, err
			}
			return c.Result, nil
		},
	}
	for _, step := range steps {
		r, err := step()
		if err != nil {
			return out, fmt.Errorf("report: %w", err)
		}
		out = append(out, r)
	}
	return out, nil
}
