package fs

import (
	"fmt"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// ZFSConfig parameterizes the copy-on-write filesystem model. The defaults
// follow the behaviour the paper observed and then confirmed against ZFS
// documentation (§4.1): "the blocks on disk containing data are never
// modified in place. Rather, the changes resulting from an application write
// are written to alternate locations on the disk" — plus vdev-style
// aggregation that caps device writes at 128 KB.
type ZFSConfig struct {
	// RecordBytes is the dataset record size (ZFS default 128 KB). Reads
	// and copy-on-write happen at record granularity, which is what
	// amplifies Filebench's 4 KB accesses into 80–128 KB device I/Os.
	RecordBytes int64
	// ARCBytes sizes the in-guest adaptive replacement cache (modeled as
	// LRU).
	ARCBytes int64
	// TxgInterval is the transaction-group sync period.
	TxgInterval simclock.Time
	// DirtyLimitRecords forces an early txg when this many records are
	// dirty; 0 means only the timer triggers syncs.
	DirtyLimitRecords int
	// AggregateBytes caps a single aggregated device write.
	AggregateBytes int64
	// ZILBytes sizes the intent-log region used by synchronous writes; 0
	// disables the ZIL (sync writes then wait for the next txg).
	ZILBytes int64
	// TxgConcurrency bounds device writes in flight during a txg sync
	// (ZFS's per-vdev queue depth); 0 means unlimited.
	TxgConcurrency int
}

// DefaultZFSConfig returns the model matching the paper's setup.
func DefaultZFSConfig() ZFSConfig {
	return ZFSConfig{
		RecordBytes:       128 << 10,
		ARCBytes:          256 << 20,
		TxgInterval:       5 * simclock.Second,
		DirtyLimitRecords: 2048,
		AggregateBytes:    128 << 10,
		ZILBytes:          256 << 20,
		TxgConcurrency:    32,
	}
}

type zfs struct {
	cfg  ZFSConfig
	eng  *simclock.Engine
	disk *vscsi.Disk
	arc  *pageCache

	files  map[string]*File
	nextID int

	// recordLoc maps each file record to its current on-disk sector; COW
	// rewrites move records, so the map is the live block-pointer tree.
	recordLoc map[pageKey]uint64
	dirty     map[pageKey]bool
	dirtySeq  []pageKey // txg write order (arrival order)

	cursor    uint64 // COW allocation cursor (sectors)
	dataStart uint64
	zilStart  uint64
	zilEnd    uint64
	zilCursor uint64

	txgActive  bool
	txgWaiters []func(error)
	ticker     *simclock.Ticker

	txgs uint64
}

// NewZFS formats a virtual disk with the copy-on-write model.
func NewZFS(eng *simclock.Engine, disk *vscsi.Disk, cfg ZFSConfig) FS {
	if cfg.RecordBytes <= 0 || cfg.RecordBytes%512 != 0 {
		panic("fs: zfs record size must be a positive multiple of 512")
	}
	if cfg.AggregateBytes < cfg.RecordBytes {
		cfg.AggregateBytes = cfg.RecordBytes
	}
	z := &zfs{
		cfg:       cfg,
		eng:       eng,
		disk:      disk,
		arc:       newPageCache(cfg.ARCBytes, cfg.RecordBytes),
		files:     make(map[string]*File),
		recordLoc: make(map[pageKey]uint64),
		dirty:     make(map[pageKey]bool),
	}
	z.zilStart = 64
	z.zilEnd = z.zilStart + uint64(cfg.ZILBytes/512)
	z.zilCursor = z.zilStart
	z.dataStart = z.zilEnd
	z.cursor = z.dataStart
	if cfg.TxgInterval > 0 {
		z.ticker = simclock.NewTicker(eng, cfg.TxgInterval, func(simclock.Time) {
			z.txg(nil)
		})
	}
	return z
}

func (z *zfs) Name() string { return "zfs" }

func (z *zfs) recordSectors() uint64 { return uint64(z.cfg.RecordBytes / 512) }

// alloc hands out the next COW location, wrapping through the data region.
// Reclamation is ignored: experiment runs are short relative to capacity,
// and wrapping preserves the property that matters — consecutive
// allocations are consecutive on disk.
func (z *zfs) alloc() uint64 {
	if z.cursor+z.recordSectors() > z.disk.CapacitySectors() {
		z.cursor = z.dataStart
	}
	s := z.cursor
	z.cursor += z.recordSectors()
	return s
}

func (z *zfs) Create(name string, size int64) (*File, error) {
	if _, dup := z.files[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	records := (size + z.cfg.RecordBytes - 1) / z.cfg.RecordBytes
	if uint64(records)*z.recordSectors() > z.disk.CapacitySectors()-z.cursor {
		return nil, fmt.Errorf("%w: creating %q (%d bytes)", ErrNoSpace, name, size)
	}
	f := &File{fs: z, name: name, id: z.nextID, ext: records * z.cfg.RecordBytes}
	z.nextID++
	// Initial layout: records allocated sequentially.
	for rec := int64(0); rec < records; rec++ {
		z.recordLoc[pageKey{f.id, rec}] = z.alloc()
	}
	z.files[name] = f
	return f, nil
}

func (z *zfs) Open(name string) (*File, error) {
	f, ok := z.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// read fetches whole records on ARC miss — the read-amplification half of
// the paper's ZFS observation.
func (z *zfs) read(f *File, off, length int64, done func(error)) {
	if err := f.checkRange(off, length, false); err != nil {
		done(err)
		return
	}
	rb := z.cfg.RecordBytes
	first, last := off/rb, (off+length-1)/rb
	var missing []pageKey
	for rec := first; rec <= last; rec++ {
		k := pageKey{f.id, rec}
		if !z.arc.lookup(k) {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		done(nil)
		return
	}
	cb := multiDone(len(missing), func(err error) {
		if err == nil {
			for _, k := range missing {
				z.arc.insert(k, false)
			}
		}
		done(err)
	})
	for _, k := range missing {
		z.issue(scsi.Read(z.recordLoc[k], uint32(z.recordSectors())), cb)
	}
}

// write dirties records copy-on-write style. A sub-record overwrite of a
// non-resident record forces a read-modify-write fill first. Synchronous
// writes additionally log to the ZIL before completing.
func (z *zfs) write(f *File, off, length int64, sync bool, done func(error)) {
	if err := f.checkRange(off, length, true); err != nil {
		done(err)
		return
	}
	rb := z.cfg.RecordBytes
	first, last := off/rb, (off+length-1)/rb
	var fills []pageKey
	for rec := first; rec <= last; rec++ {
		k := pageKey{f.id, rec}
		fullCover := off <= rec*rb && off+length >= (rec+1)*rb
		if !fullCover && !z.arc.lookup(k) && !z.dirty[k] {
			fills = append(fills, k)
		}
	}
	finish := func(err error) {
		if err != nil {
			done(err)
			return
		}
		for rec := first; rec <= last; rec++ {
			k := pageKey{f.id, rec}
			z.arc.insert(k, false) // dirtiness tracked in z.dirty, pinned until txg
			if !z.dirty[k] {
				z.dirty[k] = true
				z.dirtySeq = append(z.dirtySeq, k)
			}
		}
		if z.cfg.DirtyLimitRecords > 0 && len(z.dirtySeq) >= z.cfg.DirtyLimitRecords {
			z.txg(nil)
		}
		if sync && z.zilEnd > z.zilStart {
			z.zilAppend(length, done)
		} else if sync {
			// No ZIL: durability waits for the next txg.
			z.txgWaiters = append(z.txgWaiters, done)
		} else {
			done(nil)
		}
	}
	if len(fills) == 0 {
		finish(nil)
		return
	}
	cb := multiDone(len(fills), func(err error) {
		if err == nil {
			for _, k := range fills {
				z.arc.insert(k, false)
			}
		}
		finish(err)
	})
	for _, k := range fills {
		z.issue(scsi.Read(z.recordLoc[k], uint32(z.recordSectors())), cb)
	}
}

// zilAppend logs a synchronous write sequentially in the intent log.
func (z *zfs) zilAppend(length int64, done func(error)) {
	sectors := uint64(((length + 4095) &^ 4095) / 512)
	if sectors == 0 {
		sectors = 8
	}
	if z.zilCursor+sectors > z.zilEnd {
		z.zilCursor = z.zilStart
	}
	lba := z.zilCursor
	z.zilCursor += sectors
	z.issue(scsi.Write(lba, uint32(sectors)), done)
}

// Sync forces a transaction group and completes when it is on disk.
func (z *zfs) Sync(done func(error)) { z.txg(done) }

// txg writes every dirty record to a freshly allocated sequential run,
// aggregating adjacent allocations into device writes of at most
// AggregateBytes — the mechanism that turns random application writes into
// the sequential write stream of Figure 3(c).
func (z *zfs) txg(done func(error)) {
	if done != nil {
		z.txgWaiters = append(z.txgWaiters, done)
	}
	if z.txgActive {
		return // current txg's completion will release waiters
	}
	if len(z.dirtySeq) == 0 {
		z.releaseWaiters(nil)
		return
	}
	z.txgActive = true
	z.txgs++
	records := z.dirtySeq
	z.dirtySeq = nil
	z.dirty = make(map[pageKey]bool)

	// COW-allocate in dirty order; allocations are adjacent by
	// construction, so aggregation reduces to chopping the run.
	type extent struct {
		lba     uint64
		sectors uint32
	}
	var extents []extent
	maxSectors := uint32(z.cfg.AggregateBytes / 512)
	for _, k := range records {
		lba := z.alloc()
		z.recordLoc[k] = lba
		n := uint32(z.recordSectors())
		last := len(extents) - 1
		if last >= 0 && extents[last].lba+uint64(extents[last].sectors) == lba &&
			extents[last].sectors+n <= maxSectors {
			extents[last].sectors += n
		} else {
			extents = append(extents, extent{lba, n})
		}
	}
	cb := multiDone(len(extents), func(err error) {
		z.txgActive = false
		z.releaseWaiters(err)
		// Writes dirtied during this txg belong to the next one; if a
		// forced sync queued more waiters meanwhile, run again.
		if len(z.txgWaiters) > 0 && len(z.dirtySeq) > 0 {
			z.txg(nil)
		}
	})
	// Issue extents through a bounded window so the guest-visible queue
	// depth stays at the vdev limit rather than the whole txg at once.
	next := 0
	inflight := 0
	var pump func()
	pump = func() {
		for next < len(extents) &&
			(z.cfg.TxgConcurrency == 0 || inflight < z.cfg.TxgConcurrency) {
			e := extents[next]
			next++
			inflight++
			z.issue(scsi.Write(e.lba, e.sectors), func(err error) {
				inflight--
				pump()
				cb(err)
			})
		}
	}
	pump()
}

func (z *zfs) releaseWaiters(err error) {
	waiters := z.txgWaiters
	z.txgWaiters = nil
	for _, w := range waiters {
		w(err)
	}
}

func (z *zfs) issue(cmd scsi.Command, cb func(error)) {
	if _, err := z.disk.Issue(cmd, func(r *vscsi.Request) { cb(reqErr(r)) }); err != nil {
		cb(err)
	}
}
