package vscsistats_test

import (
	"strings"
	"testing"

	"vscsistats"
	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/fs"
	"vscsistats/internal/storage"
	"vscsistats/internal/trace"
	"vscsistats/internal/workload"
)

// TestQuickstartFlow exercises the doc-comment example end to end through
// the public facade.
func TestQuickstartFlow(t *testing.T) {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("sym", vscsistats.Symmetrix(1))
	vd, err := host.CreateVM("vm1").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "sym", CapacitySectors: 6 << 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	vd.Collector.Enable()
	gen := vscsistats.NewIometer(eng, vd.Disk, workload.FourKSeqRead(32))
	gen.Start()
	eng.RunUntil(10 * vscsistats.Second)
	gen.Stop()
	s := vd.Collector.Snapshot()
	if s.Commands == 0 {
		t.Fatal("no commands recorded")
	}
	sum := s.Summary()
	if !strings.Contains(sum, "vm1") || !strings.Contains(sum, "ioLength") {
		t.Errorf("summary:\n%s", sum)
	}
	fp := vscsistats.FingerprintOf(s)
	if fp.AccessPattern != "sequential" {
		t.Errorf("fingerprint: %v", fp)
	}
	if gen.Stats().Ops == 0 {
		t.Error("generator stats empty")
	}
}

// TestFilesystemAndTraceFlow exercises the fs + trace + offline analysis
// surface of the facade.
func TestFilesystemAndTraceFlow(t *testing.T) {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("local", storage.LocalDiskConfig(2))
	vd, err := host.CreateVM("guest").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "local", CapacitySectors: 1 << 22,
		TraceCapacity: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	vd.Collector.Enable()
	vd.Tracer.Enable()
	fsys := fs.NewPlain(eng, vd.Disk, fs.UFSConfig())
	f, err := fsys.Create("data", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	f.Prefill()
	done := 0
	for i := int64(0); i < 50; i++ {
		f.Read(i*8192, 4096, func(error) { done++ })
	}
	// RunUntil, not Run: the filesystem's background flusher ticks forever.
	eng.RunUntil(10 * vscsistats.Second)
	if done != 50 {
		t.Fatalf("reads completed: %d", done)
	}
	recs := vd.Tracer.Records()
	if len(recs) == 0 {
		t.Fatal("no trace records")
	}
	rep := analysis.Analyze(recs)
	if rep.Commands == 0 || rep.Latency.Count == 0 {
		t.Errorf("analysis: %+v", rep)
	}
	// Replaying the trace reproduces the online histograms.
	col := core.NewCollector("guest", "scsi0:0")
	col.Enable()
	trace.Replay(recs, col)
	if col.Snapshot().Commands != vd.Collector.Snapshot().Commands {
		t.Error("replay diverged from online collection")
	}
	if corr := analysis.SeekLatency(recs); corr.Total == 0 {
		t.Error("2-D correlation empty")
	}
}

// TestModelLanguageFlow parses and runs a custom model via the facade.
func TestModelLanguageFlow(t *testing.T) {
	m, err := workload.ParseModel(`
define file name=hot,size=64m
define process name=p {
  thread name=t,instances=4 {
    flowop read name=r,file=hot,iosize=8k,random
    flowop delay name=d,value=1ms
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("local", storage.LocalDiskConfig(3))
	vd, _ := host.CreateVM("g").AddDisk(vscsistats.DiskSpec{
		Name: "d", Datastore: "local", CapacitySectors: 1 << 22,
	})
	vd.Collector.Enable()
	fb := workload.NewFilebench(eng, fs.NewPlain(eng, vd.Disk, fs.Ext3Config()), m, 4)
	if err := fb.Setup(); err != nil {
		t.Fatal(err)
	}
	fb.Start()
	eng.RunUntil(5 * vscsistats.Second)
	fb.Stop()
	if vd.Collector.Snapshot().Commands == 0 {
		t.Error("model generated no I/O")
	}
}

// TestScenarioDatastoreOverride runs a scenario on the cache-less CX3 and
// checks it behaves differently from the Symmetrix default.
func TestScenarioDatastoreOverride(t *testing.T) {
	run := func(ds *vscsistats.ArrayConfig) float64 {
		sc, err := vscsistats.NewScenario("iometer-8k-rand", vscsistats.ScenarioConfig{
			Seed: 3, DataBytes: 512 << 20, Datastore: ds,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := sc.Run(10 * vscsistats.Second)
		return s.Histogram(vscsistats.MetricLatency, vscsistats.All).Mean()
	}
	symLat := run(nil)
	noCache := storage.CX3NoCacheConfig(3)
	cx3Lat := run(&noCache)
	if cx3Lat <= symLat {
		t.Errorf("cache-off latency %.0f should exceed big-cache latency %.0f", cx3Lat, symLat)
	}
}

// TestCatalogViaFacade classifies one scenario against two references.
func TestCatalogViaFacade(t *testing.T) {
	snap := func(name string, seed int64) *vscsistats.Snapshot {
		sc, err := vscsistats.NewScenario(name, vscsistats.ScenarioConfig{Seed: seed, DataBytes: 256 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return sc.Run(6 * vscsistats.Second)
	}
	catalog, err := vscsistats.NewWorkloadCatalog(
		vscsistats.WorkloadReference{Name: "random", Snap: snap("iometer-8k-rand", 1)},
		vscsistats.WorkloadReference{Name: "sequential", Snap: snap("iometer-8k-seq", 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := catalog.Classify(snap("iometer-8k-rand", 99))
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Name != "random" {
		t.Errorf("classified as %v", matches)
	}
}

// TestBurstinessViaFacade checks the arrival analysis over a captured trace.
func TestBurstinessViaFacade(t *testing.T) {
	sc, err := vscsistats.NewScenario("dbt2", vscsistats.ScenarioConfig{Seed: 2, DataBytes: 512 << 20, TraceCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sc.Run(15 * vscsistats.Second)
	b := analysis.BurstinessOf(sc.VD.Tracer.Records(), 1000)
	if b.Windows == 0 || b.PeakToMean < 1 {
		t.Errorf("burstiness: %+v", b)
	}
	// DBT-2's checkpoint bursts make arrivals super-Poisson.
	if b.IndexOfDisp <= 1 {
		t.Errorf("dispersion = %.2f, want > 1 for checkpointed DB", b.IndexOfDisp)
	}
}
