// Repository-level benchmarks: one per table and figure in the paper's
// evaluation (§4–§5). Each benchmark regenerates its experiment end to end
// on the deterministic engine, so ns/op measures the full simulation cost
// and the reported custom metrics carry the experiment's headline numbers.
//
// Run with: go test -bench=. -benchmem
package vscsistats_test

import (
	"testing"

	"vscsistats"
	"vscsistats/internal/core"
	"vscsistats/internal/report"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/vscsi"
)

// benchOptions keeps each regeneration around a second of wall time.
func benchOptions() report.Options {
	return report.Options{
		Duration:  15 * simclock.Second,
		DataBytes: 512 << 20,
		Seed:      1,
	}
}

// BenchmarkFig2FilebenchUFS regenerates Figure 2 (Filebench OLTP on UFS).
func BenchmarkFig2FilebenchUFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := report.Fig2FilebenchUFS(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Charts) != 4 {
			b.Fatal("missing panels")
		}
	}
}

// BenchmarkFig3FilebenchZFS regenerates Figure 3 (the same OLTP on ZFS).
func BenchmarkFig3FilebenchZFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig3FilebenchZFS(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4DBT2 regenerates Figure 4 (DBT-2/PostgreSQL on ext3).
func BenchmarkFig4DBT2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig4DBT2(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5FileCopy regenerates Figure 5 (XP vs Vista file copy).
func BenchmarkFig5FileCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig5FileCopy(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6MultiVM regenerates Figure 6 (multi-VM interference) and
// reports the headline interference ratios as custom metrics.
func BenchmarkFig6MultiVM(b *testing.B) {
	var m *report.MultiVMResult
	var err error
	for i := 0; i < b.N; i++ {
		m, err = report.Fig6MultiVM(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if m != nil {
		b.ReportMetric(m.SeqDualLatency/m.SeqSoloLatency, "seq-latency-x")
		b.ReportMetric(m.RandDualLatency/m.RandSoloLatency, "rand-latency-x")
		b.ReportMetric(100*(1-m.SeqDualIOps/m.SeqSoloIOps), "seq-iops-loss-%")
	}
}

// BenchmarkTable1Provisioning exercises the testbed construction path
// (Table 1 is configuration, not measurement: building the reference
// arrays, VMs and virtual disks).
func BenchmarkTable1Provisioning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := vscsistats.NewEngine()
		host := vscsistats.NewHost(eng)
		host.AddDatastore("sym", vscsistats.Symmetrix(1))
		host.AddDatastore("cx3", storage.CX3Config(2))
		if _, err := host.CreateVM("vm").AddDisk(vscsistats.DiskSpec{
			Name: "scsi0:0", Datastore: "sym", CapacitySectors: 6 << 21,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2StatsOff and BenchmarkTable2StatsOn are Table 2's CPU
// rows: the wall-clock cost of one command through the vSCSI fast path with
// the characterization service disabled versus enabled. The difference is
// the service's per-I/O overhead.
func benchFastPath(b *testing.B, enabled bool) {
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{
		VM: "bench", Name: "d", CapacitySectors: 1 << 30,
	})
	col := core.NewCollector("bench", "d")
	d.AddObserver(col)
	if enabled {
		col.Enable()
	}
	cmd := scsi.Read(0, 8) // the paper's 4 KB worst case
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmd.LBA = uint64(i) * 8 % (1 << 29)
		if _, err := d.Issue(cmd, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2StatsOff(b *testing.B) { benchFastPath(b, false) }
func BenchmarkTable2StatsOn(b *testing.B)  { benchFastPath(b, true) }

// BenchmarkCacheSweep regenerates the §5.3 intermediate results (Symmetrix
// and cached CX3 interference).
func BenchmarkCacheSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.CacheSweep(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindow measures the windowed-seek design-point sweep.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.AblationWindow(8, benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectorInsertWindow16 vs 64 quantifies the windowed
// seek-distance scan cost (§3.1's O(N) bounded term on the fast path).
func benchWindow(b *testing.B, n int) {
	col := core.NewCollectorWindow("v", "d", n)
	col.Enable()
	r := &vscsi.Request{Cmd: scsi.Read(0, 8)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Cmd.LBA = uint64(i) * 997 % (1 << 30)
		r.IssueTime = simclock.Time(i) * simclock.Microsecond
		col.OnIssue(r)
	}
}

func BenchmarkCollectorInsertWindow1(b *testing.B)  { benchWindow(b, 1) }
func BenchmarkCollectorInsertWindow16(b *testing.B) { benchWindow(b, 16) }
func BenchmarkCollectorInsertWindow64(b *testing.B) { benchWindow(b, 64) }
