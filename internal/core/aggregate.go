package core

// Aggregate merges snapshots into one combined view — the per-VM and
// per-host rollups an administrator reads before drilling into a single
// virtual disk. Counters add; histograms add cell-wise (every snapshot has
// the same layout), min and max widening over the non-empty ones: each
// snapshot is added into an empty one with AddInterval. Per-stream
// metrics (seek distance, inter-arrival) remain per-disk quantities: the
// merged histogram is the union of the disks' distributions, not the
// pattern of some interleaved stream, which is exactly how the paper treats
// per-disk locality (§3.6).
//
// Aggregate returns nil if no snapshot is given.
func Aggregate(vm, disk string, snaps ...*Snapshot) *Snapshot {
	if len(snaps) == 0 {
		return nil
	}
	out := &Snapshot{VM: vm, Disk: disk}
	for _, s := range snaps {
		out.AddInterval(nil, s)
	}
	return out
}
