package storage

import (
	"fmt"
	"math/rand"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
)

// RAIDLevel selects the array's striping scheme.
type RAIDLevel int

// Supported levels. RAID5 reserves one rotating parity chunk per stripe row
// and charges writes a parity update on a second spindle.
const (
	RAID0 RAIDLevel = iota
	RAID5
)

// ArrayConfig describes a storage array.
type ArrayConfig struct {
	Name  string
	Level RAIDLevel
	// Disks is the number of spindles; RAID5 needs at least 3.
	Disks int
	// DiskParams configures each spindle.
	DiskParams DiskParams
	// StripeSectors is the stripe unit (chunk) size in sectors.
	StripeSectors uint64
	// ReadCacheBytes sizes the LRU read cache; 0 disables it (§5.3's
	// "turn off the CX3 read cache forcing all I/Os to hit the disk").
	ReadCacheBytes int64
	// ReadAheadLines is the number of 64 KB lines prefetched when a miss
	// extends a resident sequential run.
	ReadAheadLines int
	// WriteBackBytes sizes write-back absorption; 0 means write-through.
	WriteBackBytes int64
	// TransportDelay is the per-command fabric plus controller time.
	TransportDelay simclock.Time
	// LinkBytesPerSec is the host-array link bandwidth (4 Gb FC by
	// default); every command pays its transfer time on the wire, which is
	// why a 1 MB I/O has higher latency than a 64 KB one even on a cache
	// hit (Figure 5(a)).
	LinkBytesPerSec int64
	// CacheHitTime is the extra service time for a read satisfied from
	// cache; CacheWriteTime likewise for an absorbed write.
	CacheHitTime   simclock.Time
	CacheWriteTime simclock.Time
	// ReadErrorRate / WriteErrorRate inject media failures with the given
	// per-command probability (failure-injection testing; zero in the
	// paper's experiments).
	ReadErrorRate  float64
	WriteErrorRate float64
	// Seed drives the array's rotational-latency and fault randomness.
	Seed int64
}

// Array is a striped disk array with a shared cache, implementing the
// physical half of the paper's testbed. All methods must run on the
// simulation engine's event loop.
type Array struct {
	cfg   ArrayConfig
	eng   *simclock.Engine
	disks []*Disk
	cache *Cache
	rng   *rand.Rand

	wbLimitLines int

	chunks  []chunk    // mapExtent's scratch
	freeOps []*arrayOp // finished ops awaiting reuse

	reads, writes    uint64
	readErrs, wrErrs uint64
}

// NewArray builds an array; it panics on nonsensical configuration since
// arrays are constructed from code-reviewed presets.
func NewArray(eng *simclock.Engine, cfg ArrayConfig) *Array {
	if cfg.Disks <= 0 {
		panic("storage: array needs at least one disk")
	}
	if cfg.Level == RAID5 && cfg.Disks < 3 {
		panic("storage: RAID5 needs at least three disks")
	}
	if cfg.StripeSectors == 0 {
		panic("storage: stripe unit must be nonzero")
	}
	if cfg.TransportDelay <= 0 {
		cfg.TransportDelay = 100 * simclock.Microsecond
	}
	if cfg.CacheHitTime <= 0 {
		cfg.CacheHitTime = 100 * simclock.Microsecond
	}
	if cfg.CacheWriteTime <= 0 {
		cfg.CacheWriteTime = 80 * simclock.Microsecond
	}
	if cfg.LinkBytesPerSec <= 0 {
		cfg.LinkBytesPerSec = 400 << 20 // ~4 Gb/s Fibre Channel
	}
	a := &Array{
		cfg:          cfg,
		eng:          eng,
		cache:        NewCache(cfg.ReadCacheBytes),
		rng:          simclock.NewRand(cfg.Seed),
		wbLimitLines: int(cfg.WriteBackBytes / (cacheLineSectors * 512)),
	}
	for i := 0; i < cfg.Disks; i++ {
		a.disks = append(a.disks, NewDisk(eng, cfg.DiskParams, simclock.NewRand(cfg.Seed+int64(i)+1)))
	}
	return a
}

// Name returns the configured array name.
func (a *Array) Name() string { return a.cfg.Name }

// CapacitySectors is the usable (data) capacity across all spindles.
func (a *Array) CapacitySectors() uint64 {
	dataDisks := uint64(a.cfg.Disks)
	if a.cfg.Level == RAID5 {
		dataDisks--
	}
	return dataDisks * a.cfg.DiskParams.CapacitySectors
}

// Reads and Writes report completed I/O counts.
func (a *Array) Reads() uint64  { return a.reads }
func (a *Array) Writes() uint64 { return a.writes }

// chunk is a piece of an array extent mapped onto one spindle.
type chunk struct {
	disk    int
	diskLBA uint64
	sectors uint32
	parity  int // RAID5 parity spindle for this chunk's row, else -1
}

// mapExtent splits [lba, lba+sectors) into per-spindle chunks. The result
// lives in the array's scratch slice and is valid until the next call.
func (a *Array) mapExtent(lba uint64, sectors uint32) []chunk {
	chunks := a.chunks[:0]
	end := lba + uint64(sectors)
	for cur := lba; cur < end; {
		stripeIdx := cur / a.cfg.StripeSectors
		off := cur % a.cfg.StripeSectors
		n := a.cfg.StripeSectors - off
		if cur+n > end {
			n = end - cur
		}
		c := chunk{sectors: uint32(n), parity: -1}
		switch a.cfg.Level {
		case RAID0:
			c.disk = int(stripeIdx % uint64(a.cfg.Disks))
			c.diskLBA = (stripeIdx/uint64(a.cfg.Disks))*a.cfg.StripeSectors + off
		case RAID5:
			dataDisks := uint64(a.cfg.Disks - 1)
			row := stripeIdx / dataDisks
			col := int(stripeIdx % dataDisks)
			parity := int(row % uint64(a.cfg.Disks))
			disk := col
			if disk >= parity {
				disk++
			}
			c.disk = disk
			c.diskLBA = row*a.cfg.StripeSectors + off
			c.parity = parity
		}
		chunks = append(chunks, c)
		cur += n
	}
	a.chunks = chunks
	return chunks
}

// opKind is what an arrayOp does, which decides what its completion
// accounts and reports.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opDestage // a write-back cache's asynchronous destage of absorbed lines
)

// arrayOp is one array command from arrival to completion: the extent, how
// far it has got, and every callback the stages in between hand to the
// engine and the spindles. The callbacks are bound when the op is first
// allocated and the op is recycled through Array.freeOps, so a command in
// steady state allocates nothing.
type arrayOp struct {
	a          *Array
	kind       opKind
	lba        uint64
	sectors    uint32
	sequential bool // read miss that extends a resident run: prefetch on fill
	remaining  int  // chunk transfers outstanding, plus fanOut's sentinel
	// done receives the outcome; a command from a LUN sets scsiDone
	// instead and gets the outcome as a SCSI status.
	done     func(ok bool)
	scsiDone func(scsi.Status, scsi.Sense)

	arrived  simclock.Event // transport and wire time are over
	absorbed simclock.Event // cache hit or write absorption time is over
	chunkOK  func()         // a spindle finished one chunk transfer
}

// newOp takes an op off the free list, or allocates one and binds its
// callbacks.
func (a *Array) newOp(kind opKind, lba uint64, sectors uint32) *arrayOp {
	var op *arrayOp
	if n := len(a.freeOps); n > 0 {
		op = a.freeOps[n-1]
		a.freeOps = a.freeOps[:n-1]
	} else {
		op = &arrayOp{a: a}
		op.arrived = op.arrive
		op.absorbed = func(simclock.Time) { op.complete(true) }
		op.chunkOK = op.chunkDone
	}
	op.kind, op.lba, op.sectors, op.sequential = kind, lba, sectors, false
	return op
}

func (a *Array) release(op *arrayOp) {
	op.done, op.scsiDone = nil, nil
	a.freeOps = append(a.freeOps, op)
}

// Read services an array read of sectors at lba, invoking done(ok) when the
// data is available. It must be called on the engine's event loop.
func (a *Array) Read(lba uint64, sectors uint32, done func(ok bool)) {
	a.start(opRead, lba, sectors, done, nil)
}

// Write services an array write, invoking done(ok) when the guest may
// consider it durable (cache absorption counts, as on a battery-backed
// array).
func (a *Array) Write(lba uint64, sectors uint32, done func(ok bool)) {
	a.start(opWrite, lba, sectors, done, nil)
}

// start puts a read or write on the wire; exactly one of done and scsiDone
// is set.
func (a *Array) start(kind opKind, lba uint64, sectors uint32, done func(ok bool), scsiDone func(scsi.Status, scsi.Sense)) {
	a.validate(lba, sectors)
	op := a.newOp(kind, lba, sectors)
	op.done, op.scsiDone = done, scsiDone
	a.eng.After(a.cfg.TransportDelay+a.linkTime(sectors), op.arrived)
}

// arrive runs when the command reaches the controller.
func (op *arrayOp) arrive(simclock.Time) {
	a, lba, sectors := op.a, op.lba, op.sectors
	if op.kind == opRead {
		if a.cfg.ReadErrorRate > 0 && a.rng.Float64() < a.cfg.ReadErrorRate {
			op.complete(false)
			return
		}
		if a.cache.Lookup(lba, sectors) {
			// Keep the read-ahead window rolling on hits too, or a
			// sequential stream stalls at the end of each prefetched run.
			if lba >= cacheLineSectors && a.cache.Contains(lba-1) {
				a.cache.InsertAhead(lba, sectors, a.cfg.ReadAheadLines)
			}
			a.eng.After(a.cfg.CacheHitTime, op.absorbed)
			return
		}
		// Sequential detection before the fill perturbs residency: does
		// the line preceding this extent sit in cache?
		op.sequential = lba >= cacheLineSectors && a.cache.Contains(lba-1)
		a.fanOut(op)
		return
	}
	if a.cfg.WriteErrorRate > 0 && a.rng.Float64() < a.cfg.WriteErrorRate {
		op.complete(false)
		return
	}
	a.cache.Insert(lba, sectors) // written data is readable from cache
	if a.wbLimitLines > 0 && a.cache.Dirty() < a.wbLimitLines {
		// Absorbed by the write-back cache; destage asynchronously,
		// but only for newly dirtied lines — overwrites of a dirty
		// line fold into the pending destage.
		if newLines := a.cache.MarkDirty(lba, sectors); newLines > 0 {
			a.fanOut(a.newOp(opDestage, lba, sectors))
		}
		a.eng.After(a.cfg.CacheWriteTime, op.absorbed)
		return
	}
	// Write-through: wait for the spindles (and parity).
	a.fanOut(op)
}

// complete accounts the command's outcome, recycles the op and reports to
// the caller — in that order, so a caller that issues its next command
// from the callback finds this op on the free list.
func (op *arrayOp) complete(ok bool) {
	a, read := op.a, op.kind == opRead
	switch {
	case ok && read:
		a.reads++
	case ok:
		a.writes++
	case read:
		a.readErrs++
	default:
		a.wrErrs++
	}
	done, scsiDone := op.done, op.scsiDone
	a.release(op)
	switch {
	case scsiDone == nil:
		done(ok)
	case ok:
		scsiDone(scsi.StatusGood, scsi.Sense{})
	case read:
		scsiDone(scsi.StatusCheckCondition, scsi.SenseUnrecoveredRead)
	default:
		scsiDone(scsi.StatusCheckCondition, scsi.SenseWriteFault)
	}
}

// linkTime is the wire-transfer time for an extent.
func (a *Array) linkTime(sectors uint32) simclock.Time {
	return simclock.Time(int64(sectors) * 512 * int64(simclock.Second) / a.cfg.LinkBytesPerSec)
}

// Flush models SYNCHRONIZE CACHE: it completes once the currently dirty
// write-back lines have destaged (approximated by a per-line charge).
func (a *Array) Flush(done func()) {
	d := simclock.Time(a.cache.Dirty()) * 20 * simclock.Microsecond
	a.eng.After(a.cfg.TransportDelay+d, func(simclock.Time) { done() })
}

// fanOut issues the op's chunks to their spindles; chunkDone finishes the
// op when every chunk (and for RAID5 writes, every parity update)
// completes.
func (a *Array) fanOut(op *arrayOp) {
	write := op.kind != opRead
	op.remaining = 1 // sentinel released after submission
	for _, c := range a.mapExtent(op.lba, op.sectors) {
		op.submit(c.disk, c.diskLBA, c.sectors, write)
		if write && c.parity >= 0 {
			op.submit(c.parity, c.diskLBA, c.sectors, true)
		}
	}
	op.chunkDone() // release the sentinel
}

// submit queues one chunk transfer at a spindle.
func (op *arrayOp) submit(disk int, diskLBA uint64, sectors uint32, write bool) {
	op.remaining++
	op.a.disks[disk].Submit(diskLBA, sectors, write, op.chunkOK)
}

// chunkDone counts one finished chunk and, on the last, finishes the op: a
// destage cleans its lines, a read fills the cache, and reads and
// write-through writes complete.
func (op *arrayOp) chunkDone() {
	op.remaining--
	if op.remaining > 0 {
		return
	}
	a := op.a
	switch op.kind {
	case opDestage:
		a.cache.Destaged(op.lba, op.sectors)
		a.release(op)
		return
	case opRead:
		a.cache.Insert(op.lba, op.sectors)
		if op.sequential {
			a.cache.InsertAhead(op.lba, op.sectors, a.cfg.ReadAheadLines)
		}
	}
	op.complete(true)
}

func (a *Array) validate(lba uint64, sectors uint32) {
	if sectors == 0 || lba+uint64(sectors) > a.CapacitySectors() {
		panic(fmt.Sprintf("storage: extent [%d,+%d) outside array %q (capacity %d); the LUN layer must bounds-check",
			lba, sectors, a.cfg.Name, a.CapacitySectors()))
	}
}
