package fs

import (
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

func newElevRig(t *testing.T, cfg ElevatorConfig) (*fsRig, *Elevator) {
	t.Helper()
	r := newFSRig(t)
	return r, NewElevator(r.eng, r.disk, cfg)
}

func TestElevatorBackMerge(t *testing.T) {
	r, e := newElevRig(t, DefaultElevatorConfig())
	var statuses []scsi.Status
	done := func(req *vscsi.Request) { statuses = append(statuses, req.Status) }
	// Four contiguous 4K writes inside one plug window merge to one 16K
	// command; all four callbacks fire.
	for i := 0; i < 4; i++ {
		e.Submit(true, uint64(i*8), 8, done)
	}
	r.eng.RunUntil(10 * simclock.Millisecond)
	ios := r.blockIOs()
	if len(ios) != 1 {
		t.Fatalf("dispatched %d commands, want 1 merged", len(ios))
	}
	if ios[0].Cmd.Blocks != 32 || !ios[0].Cmd.Op.IsWrite() {
		t.Errorf("merged command: %v", ios[0].Cmd)
	}
	if len(statuses) != 4 {
		t.Errorf("callbacks fired: %d", len(statuses))
	}
	if e.Merged() != 3 || e.dispatched != 1 {
		t.Errorf("Merged=%d Dispatched=%d", e.Merged(), e.dispatched)
	}
}

func TestElevatorFrontMerge(t *testing.T) {
	r, e := newElevRig(t, DefaultElevatorConfig())
	e.Submit(false, 8, 8, nil)
	e.Submit(false, 0, 8, nil) // front-merges onto [8,16)
	r.eng.RunUntil(10 * simclock.Millisecond)
	ios := r.blockIOs()
	if len(ios) != 1 || ios[0].Cmd.LBA != 0 || ios[0].Cmd.Blocks != 16 {
		t.Fatalf("front merge: %v", ios)
	}
}

func TestElevatorNoMergeAcrossDirection(t *testing.T) {
	r, e := newElevRig(t, DefaultElevatorConfig())
	e.Submit(false, 0, 8, nil)
	e.Submit(true, 8, 8, nil) // contiguous but a write
	r.eng.RunUntil(10 * simclock.Millisecond)
	if len(r.blockIOs()) != 2 {
		t.Fatalf("read/write must not merge: %v", r.blockIOs())
	}
}

func TestElevatorMergeCap(t *testing.T) {
	cfg := DefaultElevatorConfig()
	cfg.MaxMergeBytes = 8 << 10 // two 4K blocks
	r, e := newElevRig(t, cfg)
	for i := 0; i < 4; i++ {
		e.Submit(true, uint64(i*8), 8, nil)
	}
	r.eng.RunUntil(10 * simclock.Millisecond)
	ios := r.blockIOs()
	if len(ios) != 2 {
		t.Fatalf("cap should yield 2 commands: %v", ios)
	}
	for _, io := range ios {
		if io.Cmd.Bytes() != 8<<10 {
			t.Errorf("capped merge: %v", io.Cmd)
		}
	}
}

func TestElevatorSortsBatch(t *testing.T) {
	r, e := newElevRig(t, DefaultElevatorConfig())
	for _, lba := range []uint64{9000, 100, 5000} {
		e.Submit(false, lba, 8, nil)
	}
	r.eng.RunUntil(10 * simclock.Millisecond)
	ios := r.blockIOs()
	if len(ios) != 3 {
		t.Fatalf("ios: %v", ios)
	}
	if ios[0].Cmd.LBA != 100 || ios[1].Cmd.LBA != 5000 || ios[2].Cmd.LBA != 9000 {
		t.Errorf("not sorted: %v %v %v", ios[0].Cmd, ios[1].Cmd, ios[2].Cmd)
	}
}

func TestElevatorNoopPreservesOrder(t *testing.T) {
	cfg := DefaultElevatorConfig()
	cfg.Sort = false // merges but never reorders
	r, e := newElevRig(t, cfg)
	for _, lba := range []uint64{9000, 100, 5000} {
		e.Submit(false, lba, 8, nil)
	}
	r.eng.RunUntil(10 * simclock.Millisecond)
	ios := r.blockIOs()
	if ios[0].Cmd.LBA != 9000 || ios[2].Cmd.LBA != 5000 {
		t.Errorf("noop reordered: %v %v %v", ios[0].Cmd, ios[1].Cmd, ios[2].Cmd)
	}
}

func TestElevatorPlugDelaysDispatch(t *testing.T) {
	cfg := DefaultElevatorConfig()
	cfg.PlugDelay = 5 * simclock.Millisecond
	r, e := newElevRig(t, cfg)
	e.Submit(false, 0, 8, nil)
	r.eng.RunUntil(2 * simclock.Millisecond)
	if len(r.blockIOs()) != 0 {
		t.Fatal("dispatched before the plug window closed")
	}
	r.eng.RunUntil(10 * simclock.Millisecond)
	if len(r.blockIOs()) != 1 {
		t.Fatal("never dispatched")
	}
}

func TestElevatorFlushDispatchesImmediately(t *testing.T) {
	cfg := DefaultElevatorConfig()
	cfg.PlugDelay = simclock.Second
	r, e := newElevRig(t, cfg)
	e.Submit(true, 0, 8, nil)
	e.Flush()
	r.eng.RunUntil(10 * simclock.Millisecond)
	if len(r.blockIOs()) != 1 {
		t.Fatal("Flush did not dispatch")
	}
}

func TestElevatorClosedDiskFailsCallbacks(t *testing.T) {
	r, e := newElevRig(t, DefaultElevatorConfig())
	r.disk.Close()
	var got *vscsi.Request
	e.Submit(false, 0, 8, func(req *vscsi.Request) { got = req })
	r.eng.RunUntil(10 * simclock.Millisecond)
	if got == nil || got.Status != scsi.StatusCheckCondition {
		t.Errorf("closed-disk request: %+v", got)
	}
}

// The elevator visibly reshapes what the hypervisor sees: adjacent 4K
// writes appear as a single large command in the collector's histograms.
func TestElevatorShapesHistogram(t *testing.T) {
	r, e := newElevRig(t, DefaultElevatorConfig())
	for i := 0; i < 32; i++ {
		e.Submit(true, uint64(i*8), 8, nil)
	}
	r.eng.RunUntil(10 * simclock.Millisecond)
	s := r.col.Snapshot()
	if s.Commands != 1 {
		t.Fatalf("hypervisor saw %d commands, want 1 merged 128K", s.Commands)
	}
	h := s.Histogram(core.MetricIOLength, core.All)
	for i := range h.Counts {
		if h.Counts[i] == 1 && h.BinLabel(i) != "131072" {
			t.Errorf("merged I/O in bin %s", h.BinLabel(i))
		}
	}
}

func BenchmarkElevatorSubmitMerge(b *testing.B) {
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	disk := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 40})
	e := NewElevator(eng, disk, DefaultElevatorConfig())
	b.ReportAllocs()
	lba := uint64(0)
	for i := 0; i < b.N; i++ {
		e.Submit(true, lba, 8, nil)
		lba += 8
		if i%64 == 63 {
			eng.Run() // dispatch the batch
		}
	}
	eng.Run()
}
