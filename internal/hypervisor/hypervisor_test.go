package hypervisor

import (
	"runtime"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
)

func newHost(t *testing.T) (*simclock.Engine, *Host) {
	t.Helper()
	eng := simclock.NewEngine()
	h := NewHost(eng)
	h.AddDatastore("sym", storage.SymmetrixConfig(1))
	return eng, h
}

func TestProvisionAndIssue(t *testing.T) {
	eng, h := newHost(t)
	vm := h.CreateVM("oltp")
	vd, err := vm.AddDisk(DiskSpec{Name: "scsi0:0", Datastore: "sym",
		CapacitySectors: 1 << 22, TraceCapacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	vd.Collector.Enable()
	vd.Tracer.Enable()
	for i := 0; i < 10; i++ {
		vd.Disk.Issue(scsi.Read(uint64(i*16), 16), nil)
	}
	eng.Run()
	if vd.Disk.Completed() != 10 {
		t.Fatalf("completed = %d", vd.Disk.Completed())
	}
	s := vd.Collector.Snapshot()
	if s.Commands != 10 || s.Histogram(core.MetricLatency, core.All).Total != 10 {
		t.Errorf("collector: %d commands, %d latencies", s.Commands, s.Histogram(core.MetricLatency, core.All).Total)
	}
	if got := len(vd.Tracer.Records()); got != 10 {
		t.Errorf("tracer: %d records", got)
	}
	// The registry sees the collector.
	if h.Registry().Lookup("oltp", "scsi0:0") != vd.Collector {
		t.Error("registry lookup failed")
	}
}

func TestAddDiskErrors(t *testing.T) {
	_, h := newHost(t)
	vm := h.CreateVM("vm1")
	if _, err := vm.AddDisk(DiskSpec{Name: "d", Datastore: "nope", CapacitySectors: 1}); err == nil {
		t.Error("unknown datastore should fail")
	}
	if _, err := vm.AddDisk(DiskSpec{Name: "d", Datastore: "sym"}); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := vm.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1 << 50}); err == nil {
		t.Error("over-capacity should fail")
	}
	if _, err := vm.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, err := vm.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1024}); err == nil {
		t.Error("duplicate disk should fail")
	}
}

// TestLargeTracerCostsNothingUntilUsed: a disk provisioned with a
// million-entry tracer (vscsitrace capture asks for four) does not reserve
// the tracer's whole capacity up front.
func TestLargeTracerCostsNothingUntilUsed(t *testing.T) {
	_, h := newHost(t)
	vm := h.CreateVM("vm1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := vm.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1 << 22, TraceCapacity: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("AddDisk with a 1M-record tracer allocated %.1f MiB, want under 8", float64(got)/(1<<20))
	}
}

func TestDuplicateVMAndDatastorePanic(t *testing.T) {
	_, h := newHost(t)
	h.CreateVM("vm1")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate VM should panic")
			}
		}()
		h.CreateVM("vm1")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate datastore should panic")
			}
		}()
		h.AddDatastore("sym", storage.CX3Config(2))
	}()
}

func TestLUNsDoNotOverlap(t *testing.T) {
	eng, h := newHost(t)
	vmA := h.CreateVM("a")
	vmB := h.CreateVM("b")
	da, _ := vmA.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1 << 20})
	db, _ := vmB.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1 << 20})
	da.Collector.Enable()
	db.Collector.Enable()
	// Both VMs read "their" LBA 0; the LUN layer must translate to
	// different array extents, which we can only observe indirectly: both
	// succeed and are accounted separately.
	da.Disk.Issue(scsi.Read(0, 8), nil)
	db.Disk.Issue(scsi.Read(0, 8), nil)
	eng.Run()
	if da.Collector.Snapshot().Commands != 1 || db.Collector.Snapshot().Commands != 1 {
		t.Error("per-disk accounting leaked across LUNs")
	}
	if h.Datastore("sym").Reads() != 2 {
		t.Errorf("array reads = %d", h.Datastore("sym").Reads())
	}
}

func TestVMsAndDisksSorted(t *testing.T) {
	_, h := newHost(t)
	h.CreateVM("zeta")
	h.CreateVM("alpha")
	vms := h.VMs()
	if vms[0].Name() != "alpha" || vms[1].Name() != "zeta" {
		t.Errorf("VM order: %v, %v", vms[0].Name(), vms[1].Name())
	}
	vm := vms[0]
	vm.AddDisk(DiskSpec{Name: "scsi0:1", Datastore: "sym", CapacitySectors: 1024})
	vm.AddDisk(DiskSpec{Name: "scsi0:0", Datastore: "sym", CapacitySectors: 1024})
	disks := vm.Disks()
	if disks[0].Disk.Name() != "scsi0:0" {
		t.Errorf("disk order wrong")
	}
	if vm.Disk("scsi0:1") == nil || vm.Disk("nope") != nil {
		t.Error("Disk lookup wrong")
	}
	if h.VM("alpha") != vm || h.VM("nope") != nil {
		t.Error("VM lookup wrong")
	}
}

func TestEndToEndLatencySane(t *testing.T) {
	eng, h := newHost(t)
	vm := h.CreateVM("vm")
	vd, _ := vm.AddDisk(DiskSpec{Name: "d", Datastore: "sym", CapacitySectors: 1 << 22})
	vd.Collector.Enable()
	// Sequential read stream: after warmup the array prefetch makes these
	// cache hits in the sub-millisecond range.
	for i := 0; i < 200; i++ {
		i := i
		eng.At(simclock.Time(i)*2*simclock.Millisecond, func(simclock.Time) {
			vd.Disk.Issue(scsi.Read(uint64(i*16), 16), nil)
		})
	}
	eng.Run()
	s := vd.Collector.Snapshot()
	lat := s.Histogram(core.MetricLatency, core.All)
	if lat.Total != 200 {
		t.Fatalf("latency samples = %d", lat.Total)
	}
	if lat.Mean() <= 0 || lat.Mean() > 50000 {
		t.Errorf("mean latency %v us out of plausible range", lat.Mean())
	}
}
