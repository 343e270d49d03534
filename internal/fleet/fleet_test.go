package fleet

import (
	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// feed drives n synthetic commands through col — a deterministic stream
// derived from seed, mixing reads and writes, seeks, queue depths and an
// occasional error, so every histogram family gets samples.
func feed(col *core.Collector, seed, n int) {
	lba := uint64(seed) * 1000
	t := simclock.Time(seed) * simclock.Millisecond
	for i := 0; i < n; i++ {
		var cmd scsi.Command
		if (i+seed)%3 == 0 {
			cmd = scsi.Write(lba, 16)
		} else {
			cmd = scsi.Read(lba, 8)
		}
		r := &vscsi.Request{
			Cmd:                cmd,
			IssueTime:          t,
			CompleteTime:       t + simclock.Time(200+i%900)*simclock.Microsecond,
			OutstandingAtIssue: i % 8,
			Status:             scsi.StatusGood,
		}
		if (i+seed)%17 == 0 {
			r.Status = scsi.StatusCheckCondition
		}
		col.OnIssue(r)
		col.OnComplete(r)
		lba += uint64((i*37+seed*11)%4096) - 1024
		t += simclock.Time(50+i%13) * simclock.Microsecond
	}
}

// makeRegistry builds a registry of populated collectors: one VM per v in
// [0, vms), one disk per d in [0, disks), n commands each.
func makeRegistry(hostSeed, vms, disks, n int) *core.Registry {
	reg := core.NewRegistry()
	for v := 0; v < vms; v++ {
		for d := 0; d < disks; d++ {
			col := core.NewCollector(vmName(hostSeed, v), diskName(d))
			col.Enable()
			feed(col, hostSeed*100+v*10+d, n)
			reg.Register(col)
		}
	}
	return reg
}

func vmName(hostSeed, v int) string {
	return "vm" + string(rune('a'+hostSeed)) + string(rune('0'+v))
}

func diskName(d int) string {
	return "scsi0:" + string(rune('0'+d))
}

// hostSnapshot merges every disk of reg: the host's view.
func hostSnapshot(reg *core.Registry) *core.Snapshot {
	return core.Aggregate("*", "*", reg.Snapshots()...)
}

// sameSnapshot reports a bin-exact match across all six metrics, all three
// classes, and every counter (VM/Disk names excluded — rollups rename).
func sameSnapshot(a, b *core.Snapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Commands != b.Commands || a.NumReads != b.NumReads || a.NumWrites != b.NumWrites ||
		a.ReadBytes != b.ReadBytes || a.WriteBytes != b.WriteBytes || a.Errors != b.Errors {
		return false
	}
	for _, m := range core.Metrics() {
		classes := []core.Class{core.All, core.Reads, core.Writes}
		if m == core.MetricSeekWindowed {
			classes = classes[:1]
		}
		for _, cl := range classes {
			ha, hb := a.Histogram(m, cl), b.Histogram(m, cl)
			if ha.Total != hb.Total || ha.Sum != hb.Sum || ha.Min != hb.Min || ha.Max != hb.Max {
				return false
			}
			if len(ha.Counts) != len(hb.Counts) {
				return false
			}
			for i := range ha.Counts {
				if ha.Counts[i] != hb.Counts[i] {
					return false
				}
			}
		}
	}
	return true
}
