package workload

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/vscsi"
)

func TestPacedDeterministic(t *testing.T) {
	run := func() *core.Snapshot {
		r := newWLRig(t, 2*simclock.Millisecond, 1<<21)
		p := NewPaced(r.eng, r.disk, PacedSpec{
			Name: "det", BlockBytes: 8 << 10, ReadPct: 70, RandomPct: 100,
			IOPS: 200, Burst: 2, Seed: 42,
		})
		p.Start()
		r.eng.RunUntil(20 * simclock.Second)
		p.Stop()
		r.eng.Run()
		return r.col.Snapshot()
	}
	a, b := run(), run()
	if !a.StateEquals(b) {
		t.Fatal("same seed produced different collector state")
	}
	if a.Commands == 0 {
		t.Fatal("no commands observed")
	}
}

func TestPacedRateAndMix(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<21)
	const iops, secs = 500.0, 40
	p := NewPaced(r.eng, r.disk, PacedSpec{
		Name: "rate", BlockBytes: 4 << 10, ReadPct: 25, RandomPct: 100,
		IOPS: iops, Seed: 7,
	})
	p.Start()
	r.eng.RunUntil(secs * simclock.Second)
	p.Stop()
	r.eng.Run()
	s := r.col.Snapshot()
	// Poisson arrivals: expect iops*secs ± a generous 10%.
	want := float64(iops * secs)
	if got := float64(s.Commands); math.Abs(got-want) > want/10 {
		t.Fatalf("issued %v commands, want ~%v", got, want)
	}
	if rf := s.ReadFraction(); math.Abs(rf-0.25) > 0.05 {
		t.Fatalf("read fraction %.3f, want ~0.25", rf)
	}
	if p.Throttled() != 0 {
		t.Fatalf("throttled %d arrivals at IOPS well under the default cap", p.Throttled())
	}
}

func TestPacedOutstandingCap(t *testing.T) {
	// 1000 bursts/s of 8 commands against a 50ms device wants ~400
	// outstanding; the cap of 16 must hold and skipped arrivals must count.
	r := newWLRig(t, 50*simclock.Millisecond, 1<<21)
	p := NewPaced(r.eng, r.disk, PacedSpec{
		Name: "cap", BlockBytes: 4 << 10, ReadPct: 100, RandomPct: 100,
		IOPS: 1000, Burst: 8, MaxOutstanding: 16, Seed: 3,
	})
	maxSeen := 0
	p.Start()
	for r.eng.Now() < 2*simclock.Second {
		if !r.eng.Step() {
			break
		}
		if n := r.disk.Inflight(); n > maxSeen {
			maxSeen = n
		}
	}
	p.Stop()
	r.eng.Run()
	if maxSeen > 16 {
		t.Fatalf("inflight reached %d, cap is 16", maxSeen)
	}
	if p.Throttled() == 0 {
		t.Fatal("expected throttled arrivals under a saturating spec")
	}
	if p.Stats().Ops == 0 {
		t.Fatal("no completions at all")
	}
}

func TestFleetPersonalitiesWellFormed(t *testing.T) {
	ps := FleetPersonalities()
	if len(ps) < 5 {
		t.Fatalf("only %d personalities", len(ps))
	}
	seen := map[string]bool{}
	for _, fp := range ps {
		if seen[fp.Name] {
			t.Fatalf("duplicate personality %q", fp.Name)
		}
		seen[fp.Name] = true
		if fp.Weight <= 0 || fp.BaseIOPS <= 0 || fp.BlockBytes%512 != 0 {
			t.Fatalf("personality %q ill-formed: %+v", fp.Name, fp)
		}
		// The spec must instantiate and drive a disk without panicking.
		r := newWLRig(t, 2*simclock.Millisecond, 1<<21)
		p := NewPaced(r.eng, r.disk, fp.PacedSpec(11, 100))
		p.Start()
		r.eng.RunUntil(10 * simclock.Second)
		p.Stop()
		r.eng.Run()
		if r.col.Snapshot().Commands == 0 {
			t.Fatalf("personality %q issued nothing in 10s at intensity 100", fp.Name)
		}
	}
}

// TestPacedWorldCommandAllocatesNothing counts the garbage of a command
// through every simulator layer: Paced -> vscsi.Disk with an enabled
// collector -> storage.LUN -> a RAID5 array's spindles -> the engine. Once
// the pools are warm the only allocation left is IssueBatch's returned
// slice, one per burst.
func TestPacedWorldCommandAllocatesNothing(t *testing.T) {
	eng := simclock.NewEngine()
	array := storage.NewArray(eng, storage.ArrayConfig{
		Name: "world", Level: storage.RAID5, Disks: 5,
		DiskParams:    storage.DefaultDiskParams(1 << 24),
		StripeSectors: 128,
		Seed:          3,
	})
	const sectors = 1 << 22
	disk := vscsi.NewDisk(eng, storage.NewLUN(array, 0, sectors), vscsi.DiskConfig{
		VM: "vm", Name: "scsi0:0", CapacitySectors: sectors,
	})
	col := core.NewCollector("vm", "scsi0:0")
	col.Enable()
	disk.AddObserver(col)
	p := NewPaced(eng, disk, PacedSpec{
		Name: "world", BlockBytes: 16 << 10, ReadPct: 60, RandomPct: 70,
		IOPS: 150, Burst: 2, Seed: 42,
	})
	p.Start()
	eng.RunUntil(20 * simclock.Second) // warm every pool and queue buffer

	var before, after runtime.MemStats
	issued := disk.Issued()
	runtime.ReadMemStats(&before)
	eng.RunUntil(80 * simclock.Second)
	runtime.ReadMemStats(&after)
	cmds := float64(disk.Issued() - issued)
	if cmds < 10000 {
		t.Fatalf("only %v commands in 60 virtual seconds", cmds)
	}
	objects := float64(after.Mallocs-before.Mallocs) / cmds
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cmds
	t.Logf("%.0f commands: %.2f objects, %.1f B per command", cmds, objects, bytes)
	if objects > 1 || bytes > 64 {
		t.Errorf("a command allocates %.2f objects / %.1f B, want <= 1 / <= 64", objects, bytes)
	}
	if p.Stats().Errors != 0 {
		t.Errorf("%d commands failed", p.Stats().Errors)
	}
}

// TestBlockMustFitRegion builds Iometer and Paced over regions around one
// 8K block (16 sectors). A region that holds a block runs clean inside it;
// one smaller than a block is refused at construction, where Iometer used
// to panic inside the RNG on Start and Paced to issue past the region.
func TestBlockMustFitRegion(t *testing.T) {
	ctors := []struct {
		name  string
		build func(r *wlRig, region uint64) Generator
	}{
		{"iometer", func(r *wlRig, region uint64) Generator {
			spec := EightKRandomRead()
			spec.RegionSectors = region
			return NewIometer(r.eng, r.disk, spec)
		}},
		{"paced", func(r *wlRig, region uint64) Generator {
			return NewPaced(r.eng, r.disk, PacedSpec{Name: "fit", BlockBytes: 8 << 10,
				ReadPct: 50, RandomPct: 50, IOPS: 1000, RegionSectors: region, Seed: 1})
		}},
	}
	cases := []struct {
		name             string
		capacity, region uint64
		fits             bool
	}{
		{"disk smaller than a block", 8, 0, false},
		{"region smaller than a block", 1 << 20, 8, false},
		{"disk of one block", 16, 0, true},
		{"region of one block", 1 << 20, 16, true},
	}
	for _, ctor := range ctors {
		for _, c := range cases {
			t.Run(ctor.name+"/"+c.name, func(t *testing.T) {
				r := newWLRig(t, simclock.Millisecond, c.capacity)
				var gen Generator
				var refused string
				func() {
					defer func() {
						if v := recover(); v != nil {
							refused = fmt.Sprint(v)
						}
					}()
					gen = ctor.build(r, c.region)
				}()
				if !c.fits {
					if !strings.Contains(refused, "does not fit") {
						t.Fatalf("constructor refusal = %q, want a block-does-not-fit panic", refused)
					}
					return
				}
				if refused != "" {
					t.Fatalf("constructor panicked: %s", refused)
				}
				gen.Start()
				r.eng.RunUntil(simclock.Second)
				gen.Stop()
				r.eng.Run()
				if st := gen.Stats(); st.Ops == 0 || st.Errors != 0 {
					t.Fatalf("one-block region: %+v, want commands and no errors", st)
				}
			})
		}
	}
}
