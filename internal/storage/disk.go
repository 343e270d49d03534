// Package storage models the physical storage subsystem beneath the
// hypervisor: disk mechanics (seek, rotation, transfer), an array-level
// read/write cache, and striped arrays in the spirit of the paper's EMC
// Symmetrix and CLARiiON CX3 testbeds (Table 1, §5.3).
//
// The models are deliberately behavioural rather than geometric: they need
// to reproduce the *relative* phenomena the paper's evaluation rests on —
// sequential streams are fast until another client displaces the head,
// caches hide interference until they are too small or turned off, deeper
// queues mean proportionally longer latencies — not any particular device's
// datasheet.
package storage

import (
	"math"
	"math/rand"

	"vscsistats/internal/simclock"
)

// DiskParams describes one spindle's mechanics.
type DiskParams struct {
	// CapacitySectors is the usable size in 512-byte sectors.
	CapacitySectors uint64
	// SectorsPerCylinder converts LBA distance to cylinder distance for
	// the seek curve.
	SectorsPerCylinder uint64
	// SeekBase is the minimum non-zero seek time (head settle).
	SeekBase simclock.Time
	// SeekMax is the full-stroke seek time; partial seeks follow the
	// classic a + b*sqrt(d) curve between SeekBase and SeekMax.
	SeekMax simclock.Time
	// RotationPeriod is one revolution (e.g. 6ms at 10k RPM). Average
	// rotational latency is half of it.
	RotationPeriod simclock.Time
	// TransferBytesPerSec is the media transfer rate.
	TransferBytesPerSec int64
	// PerOpOverhead covers controller command processing per operation.
	PerOpOverhead simclock.Time
}

// DefaultDiskParams models a mid-2000s 10k RPM FC drive, the class of
// spindle behind the paper's arrays.
func DefaultDiskParams(capacitySectors uint64) DiskParams {
	return DiskParams{
		CapacitySectors:     capacitySectors,
		SectorsPerCylinder:  2048, // 1 MB cylinders
		SeekBase:            800 * simclock.Microsecond,
		SeekMax:             8 * simclock.Millisecond,
		RotationPeriod:      6 * simclock.Millisecond,
		TransferBytesPerSec: 80 << 20,
		PerOpOverhead:       50 * simclock.Microsecond,
	}
}

// diskOp is one physical transfer queued at a spindle.
type diskOp struct {
	lba     uint64
	sectors uint32
	write   bool
	done    func()
}

// Disk is a single spindle with a head position and a two-class queue:
// reads are served FIFO ahead of writes (the universal array policy — a
// host is waiting on reads, while writes are destage traffic), and writes
// are served shortest-seek-first so lazy destage does not thrash the arm.
// A starvation guard services one write after every few reads. The head is
// shared state across everything issuing to the disk — this is what makes
// two colocated workloads interfere (§5.3): a random stream drags the head
// away between a sequential stream's consecutive requests.
type Disk struct {
	p          DiskParams
	eng        *simclock.Engine
	rng        *rand.Rand
	reads      []diskOp // FIFO; the live part starts at readHead
	readHead   int
	writes     []diskOp
	readCredit int
	busy       bool
	current    diskOp         // the transfer in service while busy
	serviced   simclock.Event // d.serviceDone, bound once
	head       uint64         // LBA the head sits after the last transfer
	served     uint64

	busyTime simclock.Time // total time spent servicing ops
}

// readsPerWrite is the starvation guard: after this many consecutive reads
// with writes pending, one write is served.
const readsPerWrite = 4

// sstfScanLimit bounds the shortest-seek-first scan so a deep destage
// backlog cannot turn scheduling quadratic.
const sstfScanLimit = 64

// NewDisk creates an idle disk with the head at LBA 0.
func NewDisk(eng *simclock.Engine, p DiskParams, rng *rand.Rand) *Disk {
	if p.CapacitySectors == 0 || p.SectorsPerCylinder == 0 ||
		p.TransferBytesPerSec <= 0 || p.RotationPeriod <= 0 {
		panic("storage: invalid disk parameters")
	}
	d := &Disk{p: p, eng: eng, rng: rng}
	d.serviced = d.serviceDone
	return d
}

// Submit queues a transfer of sectors at lba; done fires at completion.
func (d *Disk) Submit(lba uint64, sectors uint32, write bool, done func()) {
	op := diskOp{lba, sectors, write, done}
	if write {
		d.writes = append(d.writes, op)
	} else {
		// A full buffer with a consumed prefix is compacted rather than
		// grown, so a read queue that never empties stays bounded.
		if d.readHead > 0 && len(d.reads) == cap(d.reads) {
			n := copy(d.reads, d.reads[d.readHead:])
			clear(d.reads[n:])
			d.reads, d.readHead = d.reads[:n], 0
		}
		d.reads = append(d.reads, op)
	}
	if !d.busy {
		d.startNext()
	}
}

// pickNext dequeues the next operation per the scheduling policy.
func (d *Disk) pickNext() (diskOp, bool) {
	serveRead := d.readHead < len(d.reads) &&
		(len(d.writes) == 0 || d.readCredit < readsPerWrite)
	if serveRead {
		op := d.reads[d.readHead]
		d.reads[d.readHead] = diskOp{}
		d.readHead++
		if d.readHead == len(d.reads) {
			d.reads, d.readHead = d.reads[:0], 0
		}
		d.readCredit++
		return op, true
	}
	if len(d.writes) == 0 {
		return diskOp{}, false
	}
	d.readCredit = 0
	// Shortest seek first among the first sstfScanLimit pending writes.
	best, bestDist := 0, int64(-1)
	for i, op := range d.writes {
		if i == sstfScanLimit {
			break
		}
		dist := abs(int64(op.lba) - int64(d.head))
		if bestDist < 0 || dist < bestDist {
			best, bestDist = i, dist
		}
	}
	op := d.writes[best]
	d.writes = append(d.writes[:best], d.writes[best+1:]...)
	return op, true
}

func (d *Disk) startNext() {
	op, ok := d.pickNext()
	if !ok {
		d.busy = false
		return
	}
	d.busy = true
	d.current = op
	svc := d.ServiceTime(op.lba, op.sectors)
	d.busyTime += svc
	d.head = op.lba + uint64(op.sectors)
	d.eng.After(svc, d.serviced)
}

// serviceDone completes the transfer in service and starts the next one.
func (d *Disk) serviceDone(simclock.Time) {
	d.served++
	done := d.current.done
	d.current = diskOp{}
	done()
	d.startNext()
}

// ServiceTime computes the mechanical time for a transfer starting at lba
// given the current head position: positioning (seek + rotation) plus media
// transfer. A transfer contiguous with the head needs no positioning at all
// — that asymmetry is the whole reason sequential workloads win.
func (d *Disk) ServiceTime(lba uint64, sectors uint32) simclock.Time {
	t := d.p.PerOpOverhead
	dist := int64(lba) - int64(d.head)
	if dist != 0 {
		cyl := uint64(abs(dist)) / d.p.SectorsPerCylinder
		if cyl > 0 {
			totalCyl := d.p.CapacitySectors / d.p.SectorsPerCylinder
			frac := math.Sqrt(float64(cyl) / float64(totalCyl))
			t += d.p.SeekBase + simclock.Time(float64(d.p.SeekMax-d.p.SeekBase)*frac)
		} else {
			// Same cylinder, different sector: settle only.
			t += d.p.SeekBase / 2
		}
		// Rotational latency: uniform over a revolution.
		t += simclock.Time(d.rng.Int63n(int64(d.p.RotationPeriod)))
	}
	bytes := int64(sectors) * 512
	t += simclock.Time(bytes * int64(simclock.Second) / d.p.TransferBytesPerSec)
	return t
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
