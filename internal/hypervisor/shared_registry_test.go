package hypervisor_test

import (
	"fmt"
	"sync"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/workload"
)

// buildHosts provisions n independent hosts, each on its own engine: a
// local-disk datastore, one VM, one disk with an enabled collector that is
// also registered into reg, and an 8K random-read Iometer started at t=0.
func buildHosts(t testing.TB, n int, reg *core.Registry) []*hypervisor.Host {
	t.Helper()
	hosts := make([]*hypervisor.Host, n)
	for i := range hosts {
		eng := simclock.NewEngine()
		h := hypervisor.NewHost(eng)
		h.AddDatastore("ds", storage.LocalDiskConfig(int64(i)+1))
		vd, err := h.CreateVM(fmt.Sprintf("vm%d", i)).AddDisk(hypervisor.DiskSpec{
			Name: "scsi0:0", Datastore: "ds", CapacitySectors: 1 << 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		vd.Collector.Enable()
		reg.Register(vd.Collector)
		spec := workload.EightKRandomRead()
		spec.Seed = int64(i) + 100
		gen := workload.NewIometer(eng, vd.Disk, spec)
		eng.At(0, func(simclock.Time) { gen.Start() })
		hosts[i] = h
	}
	return hosts
}

// TestParallelMonitoringUnderLoad runs each host's engine on its own
// goroutine while monitoring goroutines snapshot and toggle the shared
// registry and read every disk's vSCSI counters; run it under -race.
func TestParallelMonitoringUnderLoad(t *testing.T) {
	reg := core.NewRegistry()
	hosts := buildHosts(t, 4, reg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, s := range reg.Snapshots() {
					if s.Commands < 0 {
						t.Error("negative command count")
						return
					}
				}
				for _, h := range hosts {
					for _, vm := range h.VMs() {
						for _, vd := range vm.Disks() {
							d := vd.Disk
							_, _, _, _ = d.Issued(), d.Completed(), d.Inflight(), d.Errored()
						}
					}
				}
				if c := reg.Lookup("vm1", "scsi0:0"); c != nil {
					c.Disable()
					c.Enable()
				}
			}
		}()
	}
	var sims sync.WaitGroup
	for _, h := range hosts {
		sims.Add(1)
		go func() {
			defer sims.Done()
			h.Engine().RunUntil(2 * simclock.Second)
		}()
	}
	sims.Wait()
	close(done)
	wg.Wait()

	for _, s := range reg.Snapshots() {
		if s.Commands == 0 {
			t.Errorf("host %s/%s saw no commands", s.VM, s.Disk)
		}
	}
}

// TestSharedRegistryHosts checks that several hosts' collectors pool
// behind one registry while each host keeps its own.
func TestSharedRegistryHosts(t *testing.T) {
	reg := core.NewRegistry()
	hosts := buildHosts(t, 2, reg)
	if got := len(reg.List()); got != 2 {
		t.Fatalf("shared registry has %d collectors, want 2", got)
	}
	for i, h := range hosts {
		if got := h.Registry().List(); len(got) != 1 || reg.Lookup(got[0].VM(), got[0].Disk()) != got[0] {
			t.Errorf("host %d: own registry %v, want its one collector, shared", i, got)
		}
	}
}
