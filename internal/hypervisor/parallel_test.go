package hypervisor_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/workload"
)

// buildSim provisions n identical-but-independently-seeded worlds: each has
// its own local-disk datastore, one VM, one disk with an enabled collector,
// and an 8K random-read Iometer started at t=0.
func buildSim(t testing.TB, n int) *hypervisor.ParallelSim {
	t.Helper()
	return hypervisor.NewParallelSim(n, func(w *hypervisor.World) {
		w.Host.AddDatastore("ds", storage.LocalDiskConfig(int64(w.Index)+1))
		vm := w.Host.CreateVM(fmt.Sprintf("vm%d", w.Index))
		vd, err := vm.AddDisk(hypervisor.DiskSpec{
			Name: "scsi0:0", Datastore: "ds", CapacitySectors: 1 << 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		vd.Collector.Enable()
		spec := workload.EightKRandomRead()
		spec.Seed = int64(w.Index) + 100
		gen := workload.NewIometer(w.Engine, vd.Disk, spec)
		w.Engine.At(0, func(simclock.Time) { gen.Start() })
	})
}

// fingerprint reduces a registry's snapshots to a comparable string.
func fingerprint(reg *core.Registry) string {
	var b strings.Builder
	for _, s := range reg.Snapshots() {
		fmt.Fprintf(&b, "%s/%s: cmds=%d reads=%d latSum=%d seekTot=%d\n",
			s.VM, s.Disk, s.Commands, s.NumReads,
			s.Histogram(core.MetricLatency, core.All).Sum, s.Histogram(core.MetricSeekDistance, core.All).Total)
	}
	return b.String()
}

// TestParallelMatchesSequential checks that the parallel drivers produce
// bit-identical per-world results to the sequential baseline: worlds share
// no simulated state, so goroutine scheduling must not leak into outcomes.
func TestParallelMatchesSequential(t *testing.T) {
	const deadline = 1 * simclock.Second

	seq := buildSim(t, 4)
	seq.RunSequential(deadline)
	want := fingerprint(seq.Registry())
	if !strings.Contains(want, "cmds=") || strings.Contains(want, "cmds=0") {
		t.Fatalf("sequential run produced no I/O:\n%s", want)
	}

	par := buildSim(t, 4)
	par.RunUntil(deadline)
	if got := fingerprint(par.Registry()); got != want {
		t.Errorf("RunUntil diverged from sequential:\n got:\n%s want:\n%s", got, want)
	}

	lock := buildSim(t, 4)
	lock.RunLockstep(100*simclock.Millisecond, deadline)
	if got := fingerprint(lock.Registry()); got != want {
		t.Errorf("RunLockstep diverged from sequential:\n got:\n%s want:\n%s", got, want)
	}
}

// TestParallelMonitoringUnderLoad polls the shared registry and the esxtop
// view from monitoring goroutines while all worlds run — the race the
// tentpole exists to fix; run it under -race.
func TestParallelMonitoringUnderLoad(t *testing.T) {
	p := buildSim(t, 4)
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
				for _, s := range p.Registry().Snapshots() {
					if s.Commands < 0 {
						t.Error("negative command count")
						return
					}
				}
				_ = p.Top()
				if c := p.Registry().Lookup("vm1", "scsi0:0"); c != nil {
					c.Disable()
					c.Enable()
				}
			}
		}()
	}
	p.RunUntil(2 * simclock.Second)
	close(done)
	wg.Wait()

	for _, s := range p.Registry().Snapshots() {
		if s.Commands == 0 {
			t.Errorf("world %s/%s saw no commands", s.VM, s.Disk)
		}
	}
}

// TestSharedRegistryHosts verifies NewHostOn pools several hosts' disks
// behind one registry.
func TestSharedRegistryHosts(t *testing.T) {
	reg := core.NewRegistry()
	for i := 0; i < 2; i++ {
		eng := simclock.NewEngine()
		h := hypervisor.NewHostOn(eng, reg)
		if h.Registry() != reg {
			t.Fatal("host did not adopt the shared registry")
		}
		h.AddDatastore("ds", storage.LocalDiskConfig(1))
		if _, err := h.CreateVM(fmt.Sprintf("host%d-vm", i)).AddDisk(hypervisor.DiskSpec{
			Name: "scsi0:0", Datastore: "ds", CapacitySectors: 1 << 20,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(reg.List()); got != 2 {
		t.Fatalf("shared registry has %d collectors, want 2", got)
	}
}
