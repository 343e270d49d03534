package core

import "slices"

// Aggregate merges snapshots into one combined view — the per-VM and
// per-host rollups an administrator reads before drilling into a single
// virtual disk. Counters add; histograms add cell-wise (every snapshot has
// the same layout), min and max widening over the non-empty ones. Per-stream
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
	out := *snaps[0]
	out.VM, out.Disk = vm, disk
	out.cells = slices.Clone(snaps[0].Cells())
	for _, s := range snaps[1:] {
		out.Commands += s.Commands
		out.NumReads += s.NumReads
		out.NumWrites += s.NumWrites
		out.ReadBytes += s.ReadBytes
		out.WriteBytes += s.WriteBytes
		out.Errors += s.Errors
		cells := s.Cells()
		for i := range cellTable {
			addHist(cellTable[i].Of(out.cells), cellTable[i].Of(cells))
		}
	}
	return &out
}
