package storage

import (
	"fmt"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// LUN carves a contiguous extent of an array into a logical unit backing one
// virtual disk, and adapts it to the vscsi.Backend interface. It is the
// "datastore placement" knob: virtual disks placed on overlapping spindles
// interfere, disks on different arrays do not (§3.6, §3.7).
type LUN struct {
	array   *Array
	base    uint64 // array LBA of sector 0
	sectors uint64
}

// NewLUN allocates [base, base+sectors) of the array to a logical unit.
func NewLUN(array *Array, base, sectors uint64) *LUN {
	if sectors == 0 || base+sectors > array.CapacitySectors() {
		panic(fmt.Sprintf("storage: LUN [%d,+%d) exceeds array capacity %d",
			base, sectors, array.CapacitySectors()))
	}
	return &LUN{array: array, base: base, sectors: sectors}
}

// Array returns the backing array.
func (l *LUN) Array() *Array { return l.array }

// CapacitySectors returns the LUN size.
func (l *LUN) CapacitySectors() uint64 { return l.sectors }

var _ vscsi.Backend = (*LUN)(nil)

// Submit implements vscsi.Backend: block reads and writes translate to
// array extents, whose op reports straight to done (a failed read as
// UNRECOVERED READ, a failed write as WRITE FAULT); SYNCHRONIZE CACHE
// flushes; other commands complete after the transport delay (they are
// emulated control traffic).
func (l *LUN) Submit(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
	cmd := r.Cmd
	switch {
	case cmd.Op.IsRead():
		if !l.inRange(cmd) {
			done(scsi.StatusCheckCondition, scsi.SenseLBAOutOfRange)
			return
		}
		l.array.start(opRead, l.base+cmd.LBA, cmd.Blocks, nil, done)
	case cmd.Op.IsWrite():
		if !l.inRange(cmd) {
			done(scsi.StatusCheckCondition, scsi.SenseLBAOutOfRange)
			return
		}
		l.array.start(opWrite, l.base+cmd.LBA, cmd.Blocks, nil, done)
	case cmd.Op == scsi.OpSynchronizeCache10:
		l.array.Flush(func() { done(scsi.StatusGood, scsi.Sense{}) })
	default:
		l.array.eng.After(l.array.cfg.TransportDelay, func(simclock.Time) {
			done(scsi.StatusGood, scsi.Sense{})
		})
	}
}

func (l *LUN) inRange(cmd scsi.Command) bool {
	return cmd.Blocks > 0 && cmd.LBA+uint64(cmd.Blocks) <= l.sectors
}

// Allocator hands out consecutive LUNs from an array, the way a datastore
// carves VMDKs from a volume.
type Allocator struct {
	array *Array
	next  uint64
}

// NewAllocator returns an allocator starting at array LBA 0.
func NewAllocator(array *Array) *Allocator { return &Allocator{array: array} }

// Alloc carves the next LUN of the given size.
func (al *Allocator) Alloc(sectors uint64) *LUN {
	l := NewLUN(al.array, al.next, sectors)
	al.next += sectors
	return l
}

// Remaining returns the unallocated capacity.
func (al *Allocator) Remaining() uint64 { return al.array.CapacitySectors() - al.next }
