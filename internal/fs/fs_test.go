package fs

import (
	"errors"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// fsRig builds an FS on a virtual disk with a recording collector and a
// fixed-latency backend.
type fsRig struct {
	eng  *simclock.Engine
	disk *vscsi.Disk
	col  *core.Collector
	reqs []*vscsi.Request
}

// reqRecorder keeps a copy of every issued request: the disk recycles the
// Request itself once the command is over.
type reqRecorder struct{ rig *fsRig }

func (r *reqRecorder) OnIssue(req *vscsi.Request) {
	c := *req
	r.rig.reqs = append(r.rig.reqs, &c)
}
func (r *reqRecorder) OnComplete(*vscsi.Request) {}

func newFSRig(t *testing.T) *fsRig {
	t.Helper()
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(200*simclock.Microsecond, func(simclock.Time) {
			done(scsi.StatusGood, scsi.Sense{})
		})
	})
	disk := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{
		VM: "vm", Name: "scsi0:0", CapacitySectors: 1 << 26, // 32 GB
	})
	col := core.NewCollector("vm", "scsi0:0")
	col.Enable()
	disk.AddObserver(col)
	rig := &fsRig{eng: eng, disk: disk, col: col}
	disk.AddObserver(&reqRecorder{rig})
	return rig
}

// wait runs the engine until the callback's error lands.
func (r *fsRig) wait(t *testing.T, op func(done func(error))) {
	t.Helper()
	var got *error
	op(func(err error) { got = &err })
	// Step rather than drain: background tickers (flusher, txg) keep the
	// engine's queue perpetually nonempty.
	for got == nil && r.eng.Step() {
	}
	if got == nil {
		t.Fatal("operation never completed")
	}
	if *got != nil {
		t.Fatalf("operation failed: %v", *got)
	}
}

func (r *fsRig) blockIOs() []*vscsi.Request {
	var out []*vscsi.Request
	for _, q := range r.reqs {
		if q.Cmd.Op.IsBlockIO() {
			out = append(out, q)
		}
	}
	return out
}

func TestPlainCreateOpenErrors(t *testing.T) {
	r := newFSRig(t)
	p := NewPlain(r.eng, r.disk, UFSConfig())
	f, err := p.Create("a", 1<<20)
	if err != nil || f.Size() != 0 || f.Name() != "a" {
		t.Fatalf("Create: %v %+v", err, f)
	}
	if _, err := p.Create("a", 1); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := p.Open("a"); err != nil {
		t.Errorf("Open: %v", err)
	}
	if _, err := p.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Open missing: %v", err)
	}
	if _, err := p.Create("huge", 1<<40); !errors.Is(err, ErrNoSpace) {
		t.Errorf("no-space create: %v", err)
	}
}

func TestPlainReadRoundsToBlock(t *testing.T) {
	r := newFSRig(t)
	p := NewPlain(r.eng, r.disk, UFSConfig()) // 8 KB blocks
	f, _ := p.Create("a", 10<<20)
	r.wait(t, func(done func(error)) { f.Read(1000, 2000, done) }) // within one block
	ios := r.blockIOs()
	if len(ios) != 1 {
		t.Fatalf("got %d I/Os", len(ios))
	}
	if ios[0].Cmd.Bytes() != 8192 || !ios[0].Cmd.Op.IsRead() {
		t.Errorf("read I/O = %v", ios[0].Cmd)
	}
}

func TestPlainReadCachedNoIO(t *testing.T) {
	r := newFSRig(t)
	p := NewPlain(r.eng, r.disk, UFSConfig())
	f, _ := p.Create("a", 10<<20)
	r.wait(t, func(done func(error)) { f.Read(0, 8192, done) })
	n := len(r.blockIOs())
	r.wait(t, func(done func(error)) { f.Read(0, 8192, done) })
	if len(r.blockIOs()) != n {
		t.Errorf("cached read generated disk I/O")
	}
}

func TestPlainSyncWriteExactGranularity(t *testing.T) {
	r := newFSRig(t)
	p := NewPlain(r.eng, r.disk, UFSConfig())
	f, _ := p.Create("a", 10<<20)
	r.wait(t, func(done func(error)) { f.Write(0, 4096, true, done) })
	ios := r.blockIOs()
	if len(ios) != 1 || ios[0].Cmd.Bytes() != 4096 || !ios[0].Cmd.Op.IsWrite() {
		t.Fatalf("sync 4K write produced %v", ios)
	}
}

func TestPlainLargeIOSplitsAtMaxIO(t *testing.T) {
	r := newFSRig(t)
	cfg := NTFSXPConfig() // MaxIO = 64 KB
	cfg.PageCacheBytes = 0
	r2 := newFSRig(t)
	p := NewPlain(r2.eng, r2.disk, cfg)
	f, _ := p.Create("a", 10<<20)
	r2.wait(t, func(done func(error)) { f.Read(0, 256<<10, done) })
	ios := r2.blockIOs()
	if len(ios) != 4 {
		t.Fatalf("256K read on 64K MaxIO: %d I/Os", len(ios))
	}
	for _, io := range ios {
		if io.Cmd.Bytes() != 64<<10 {
			t.Errorf("I/O size %d, want 65536", io.Cmd.Bytes())
		}
	}
	_ = r
}

func TestPlainBufferedWriteDefersIO(t *testing.T) {
	r := newFSRig(t)
	cfg := UFSConfig()
	cfg.FlushInterval = simclock.Second
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("a", 10<<20)
	var completed bool
	f.Write(0, 8192, false, func(err error) { completed = true })
	if !completed {
		t.Fatal("buffered write should complete immediately")
	}
	if len(r.blockIOs()) != 0 {
		t.Fatal("buffered write issued immediate I/O")
	}
	r.eng.RunUntil(1100 * simclock.Millisecond)
	if len(r.blockIOs()) == 0 {
		t.Fatal("background flusher never wrote dirty pages")
	}
}

func TestPlainFlushCoalescesRuns(t *testing.T) {
	r := newFSRig(t)
	cfg := UFSConfig()
	cfg.FlushInterval = 0 // manual sync only
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("a", 10<<20)
	for i := int64(0); i < 8; i++ {
		f.Write(i*8192, 8192, false, func(error) {})
	}
	r.wait(t, func(done func(error)) { p.Sync(done) })
	ios := r.blockIOs()
	if len(ios) != 1 {
		t.Fatalf("8 adjacent dirty blocks flushed as %d I/Os, want 1", len(ios))
	}
	if ios[0].Cmd.Bytes() != 64<<10 {
		t.Errorf("coalesced flush size %d", ios[0].Cmd.Bytes())
	}
}

func TestPlainJournalAppendsSequential(t *testing.T) {
	r := newFSRig(t)
	cfg := Ext3Config()
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("log", 10<<20)
	var journalLBAs []uint64
	for i := 0; i < 3; i++ {
		before := len(r.blockIOs())
		r.wait(t, func(done func(error)) { f.Append(4096, true, done) })
		for _, io := range r.blockIOs()[before:] {
			if io.Cmd.LBA < uint64(cfg.JournalBytes/512)+64 && io.Cmd.LBA >= 64 {
				journalLBAs = append(journalLBAs, io.Cmd.LBA)
			}
		}
	}
	if len(journalLBAs) != 3 {
		t.Fatalf("expected 3 journal commits, got %d", len(journalLBAs))
	}
	for i := 1; i < len(journalLBAs); i++ {
		if journalLBAs[i] != journalLBAs[i-1]+8 {
			t.Errorf("journal not sequential: %v", journalLBAs)
		}
	}
}

func TestPlainOutOfRange(t *testing.T) {
	r := newFSRig(t)
	p := NewPlain(r.eng, r.disk, UFSConfig())
	f, _ := p.Create("a", 8192)
	var got error
	f.Read(8192, 1, func(err error) { got = err })
	if !errors.Is(got, ErrOutOfRange) {
		t.Errorf("read out of range: %v", got)
	}
	f.Write(0, 0, true, func(err error) { got = err })
	if !errors.Is(got, ErrOutOfRange) {
		t.Errorf("zero-length write: %v", got)
	}
	f.Append(16384, true, func(err error) { got = err })
	if !errors.Is(got, ErrOutOfRange) {
		t.Errorf("append past extent: %v", got)
	}
}

func TestPlainAppendGrowsSize(t *testing.T) {
	r := newFSRig(t)
	p := NewPlain(r.eng, r.disk, UFSConfig())
	f, _ := p.Create("a", 1<<20)
	r.wait(t, func(done func(error)) { f.Append(4096, true, done) })
	r.wait(t, func(done func(error)) { f.Append(4096, true, done) })
	if f.Size() != 8192 {
		t.Errorf("Size = %d", f.Size())
	}
}

func TestPlainIOErrorPropagates(t *testing.T) {
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusCheckCondition, scsi.SenseUnrecoveredRead)
	})
	disk := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 26})
	p := NewPlain(eng, disk, UFSConfig())
	f, _ := p.Create("a", 1<<20)
	var got error
	done := false
	f.Read(0, 4096, func(err error) { got = err; done = true })
	for !done && eng.Step() {
	}
	if !errors.Is(got, ErrIO) {
		t.Errorf("got %v, want ErrIO", got)
	}
}

func TestPlainValidation(t *testing.T) {
	r := newFSRig(t)
	for _, cfg := range []PlainConfig{
		{Type: "x", BlockBytes: 0, MaxIOBytes: 4096},
		{Type: "x", BlockBytes: 1000, MaxIOBytes: 4096},
		{Type: "x", BlockBytes: 8192, MaxIOBytes: 4096},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			NewPlain(r.eng, r.disk, cfg)
		}()
	}
}

// --- ZFS ---

func newZFSRig(t *testing.T, cfg ZFSConfig) (*fsRig, FS) {
	r := newFSRig(t)
	return r, NewZFS(r.eng, r.disk, cfg)
}

func TestZFSReadAmplification(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0 // manual txg for test isolation
	r, z := newZFSRig(t, cfg)
	f, err := z.Create("tbl", 100<<20)
	if err != nil {
		t.Fatal(err)
	}
	r.wait(t, func(done func(error)) { f.Read(0, 4096, done) })
	ios := r.blockIOs()
	if len(ios) != 1 || ios[0].Cmd.Bytes() != 128<<10 {
		t.Fatalf("4K read should fetch one 128K record, got %v", ios)
	}
	// Second read of the same record: ARC hit, no I/O.
	n := len(r.blockIOs())
	r.wait(t, func(done func(error)) { f.Read(8192, 4096, done) })
	if len(r.blockIOs()) != n {
		t.Error("ARC-resident record re-read from disk")
	}
}

func TestZFSCOWTurnsRandomWritesSequential(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	cfg.ZILBytes = 0
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 1<<30)
	// Dirty 8 records at random far-apart offsets (full-record writes so no
	// fill reads).
	rng := simclock.NewRand(42)
	for i := 0; i < 8; i++ {
		rec := rng.Int63n(8192)
		f.Write(rec*(128<<10), 128<<10, false, func(error) {})
	}
	r.wait(t, func(done func(error)) { z.Sync(done) })
	ios := r.blockIOs()
	if len(ios) != 8 {
		t.Fatalf("txg issued %d I/Os, want 8", len(ios))
	}
	// Writes must be 128K and consecutive on disk despite random offsets.
	for i, io := range ios {
		if !io.Cmd.Op.IsWrite() || io.Cmd.Bytes() != 128<<10 {
			t.Errorf("txg I/O %d: %v", i, io.Cmd)
		}
		if i > 0 && io.Cmd.LBA != ios[i-1].Cmd.LastLBA()+1 {
			t.Errorf("txg writes not sequential: %d follows %d", io.Cmd.LBA, ios[i-1].Cmd.LastLBA())
		}
	}
}

func TestZFSSubRecordWriteForcesFillRead(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	cfg.ZILBytes = 0
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 100<<20)
	r.wait(t, func(done func(error)) { f.Write(0, 4096, false, done) })
	ios := r.blockIOs()
	if len(ios) != 1 || !ios[0].Cmd.Op.IsRead() || ios[0].Cmd.Bytes() != 128<<10 {
		t.Fatalf("sub-record write should trigger one 128K fill read, got %v", ios)
	}
}

func TestZFSSyncWriteHitsZIL(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 100<<20)
	// Full-record sync write: no fill read, one ZIL write before done.
	r.wait(t, func(done func(error)) { f.Write(0, 128<<10, true, done) })
	ios := r.blockIOs()
	if len(ios) != 1 || !ios[0].Cmd.Op.IsWrite() {
		t.Fatalf("sync write should log to ZIL, got %v", ios)
	}
	if ios[0].Cmd.LBA >= 64+uint64(cfg.ZILBytes/512) {
		t.Errorf("ZIL write outside log region: lba=%d", ios[0].Cmd.LBA)
	}
	// Consecutive sync writes append sequentially in the ZIL.
	r.wait(t, func(done func(error)) { f.Write(128<<10, 128<<10, true, done) })
	ios = r.blockIOs()
	if ios[1].Cmd.LBA != ios[0].Cmd.LastLBA()+1 {
		t.Errorf("ZIL not sequential: %v then %v", ios[0].Cmd, ios[1].Cmd)
	}
}

func TestZFSRecordRelocationVisibleToReads(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	cfg.ZILBytes = 0
	cfg.ARCBytes = 0 // no caching: reads always hit disk
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 100<<20)
	r.wait(t, func(done func(error)) { f.Read(0, 4096, done) })
	lbaBefore := r.blockIOs()[0].Cmd.LBA
	r.wait(t, func(done func(error)) { f.Write(0, 128<<10, false, done) })
	r.wait(t, func(done func(error)) { z.Sync(done) })
	r.wait(t, func(done func(error)) { f.Read(0, 4096, done) })
	ios := r.blockIOs()
	lbaAfter := ios[len(ios)-1].Cmd.LBA
	if lbaAfter == lbaBefore {
		t.Error("COW did not relocate the record")
	}
}

func TestZFSTimerTxg(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.ZILBytes = 0
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 100<<20)
	f.Write(0, 128<<10, false, func(error) {})
	r.eng.RunUntil(6 * simclock.Second)
	var writes int
	for _, io := range r.blockIOs() {
		if io.Cmd.Op.IsWrite() {
			writes++
		}
	}
	if writes != 1 {
		t.Errorf("timer txg wrote %d I/Os, want 1", writes)
	}
	if txgs := z.(*zfs).txgs; txgs != 1 {
		t.Errorf("txgs = %d", txgs)
	}
}

func TestZFSDirtyLimitForcesTxg(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	cfg.ZILBytes = 0
	cfg.DirtyLimitRecords = 4
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 100<<20)
	for i := int64(0); i < 4; i++ {
		f.Write(i*(128<<10), 128<<10, false, func(error) {})
	}
	r.eng.Run()
	var writes int
	for _, io := range r.blockIOs() {
		if io.Cmd.Op.IsWrite() {
			writes++
		}
	}
	if writes == 0 {
		t.Error("dirty limit never forced a txg")
	}
}

func TestZFSAggregationCap(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	cfg.ZILBytes = 0
	cfg.RecordBytes = 8 << 10
	cfg.AggregateBytes = 128 << 10
	r, z := newZFSRig(t, cfg)
	f, _ := z.Create("tbl", 100<<20)
	// Dirty 32 8K records: allocations are adjacent, so aggregation should
	// produce exactly two 128K writes.
	for i := int64(0); i < 32; i++ {
		f.Write(i*(8<<10), 8<<10, false, func(error) {})
	}
	r.wait(t, func(done func(error)) { z.Sync(done) })
	ios := r.blockIOs()
	if len(ios) != 2 {
		t.Fatalf("aggregation produced %d I/Os, want 2", len(ios))
	}
	for _, io := range ios {
		if io.Cmd.Bytes() != 128<<10 {
			t.Errorf("aggregated write %d bytes", io.Cmd.Bytes())
		}
	}
}

func TestZFSSyncNoDirtyCompletesImmediately(t *testing.T) {
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	r, z := newZFSRig(t, cfg)
	done := false
	z.Sync(func(err error) { done = err == nil })
	for !done && r.eng.Step() {
	}
	if !done {
		t.Error("empty txg should complete")
	}
}

func TestZFSCreateErrors(t *testing.T) {
	cfg := DefaultZFSConfig()
	_, z := newZFSRig(t, cfg)
	if _, err := z.Create("a", 1<<20); err != nil {
		t.Fatal(err)
	}
	if _, err := z.Create("a", 1<<20); !errors.Is(err, ErrExists) {
		t.Errorf("dup: %v", err)
	}
	if _, err := z.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
	if _, err := z.Create("huge", 1<<40); !errors.Is(err, ErrNoSpace) {
		t.Errorf("no space: %v", err)
	}
}

// --- page cache unit tests ---

func TestPageCacheLRUAndDirty(t *testing.T) {
	c := newPageCache(3*4096, 4096)
	if c.lookup(pageKey{1, 0}) {
		t.Fatal("hit on empty cache")
	}
	c.insert(pageKey{1, 0}, true)
	c.insert(pageKey{1, 1}, false)
	c.insert(pageKey{1, 2}, false)
	if !c.lookup(pageKey{1, 0}) {
		t.Fatal("miss on resident page")
	}
	// Inserting a 4th page evicts LRU page {1,1}.
	evicted := c.insert(pageKey{1, 3}, false)
	if len(evicted) != 0 {
		t.Errorf("clean eviction returned %v", evicted)
	}
	if c.lookup(pageKey{1, 1}) {
		t.Error("evicted page still resident")
	}
	// Dirty page evicted under pressure is reported.
	c.insert(pageKey{1, 4}, false) // evicts {1,2}
	evicted = c.insert(pageKey{1, 5}, false)
	if len(evicted) != 1 || evicted[0] != (pageKey{1, 0}) {
		t.Errorf("dirty eviction = %v, want [{1 0}]", evicted)
	}
}

func TestPageCacheDirtyPagesCleans(t *testing.T) {
	c := newPageCache(10*4096, 4096)
	c.insert(pageKey{1, 5}, true)
	c.insert(pageKey{1, 6}, true)
	c.insert(pageKey{1, 7}, false)
	if dirtyCount(c) != 2 {
		t.Errorf("dirtyCount = %d", dirtyCount(c))
	}
	d := c.dirtyPages()
	if len(d) != 2 {
		t.Fatalf("dirtyPages = %v", d)
	}
	if dirtyCount(c) != 0 {
		t.Error("dirtyPages did not clean")
	}
	if len(c.pages) != 3 {
		t.Errorf("len = %d", len(c.pages))
	}
}

func TestPageCacheDisabled(t *testing.T) {
	c := newPageCache(0, 4096)
	c.insert(pageKey{1, 0}, true)
	if c.lookup(pageKey{1, 0}) || len(c.pages) != 0 {
		t.Error("disabled cache stored a page")
	}
}

func TestPlainWithElevatorMergesAdjacentWrites(t *testing.T) {
	r := newFSRig(t)
	cfg := Ext3Config()
	cfg.FlushInterval = 0
	cfg.UseElevator = true
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("a", 10<<20)
	// Eight adjacent buffered 4K writes, then Sync: the flusher coalesces
	// them into one run, and the elevator passes the merged command on.
	for i := int64(0); i < 8; i++ {
		f.Write(i*4096, 4096, false, func(error) {})
	}
	r.wait(t, func(done func(error)) { p.Sync(done) })
	var dataIOs, journalIOs int
	for _, io := range r.blockIOs() {
		if io.Cmd.LBA >= uint64(cfg.JournalBytes/512)+64 {
			dataIOs++
		} else {
			journalIOs++
		}
	}
	if dataIOs != 1 {
		t.Errorf("data I/Os = %d, want 1 merged 32K", dataIOs)
	}
	if journalIOs != 1 {
		t.Errorf("journal I/Os = %d", journalIOs)
	}
}

func TestPlainWithElevatorSyncWritesStillComplete(t *testing.T) {
	r := newFSRig(t)
	cfg := UFSConfig()
	cfg.UseElevator = true
	cfg.Elevator = DefaultElevatorConfig()
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("a", 1<<20)
	r.wait(t, func(done func(error)) { f.Write(0, 4096, true, done) })
	if len(r.blockIOs()) != 1 {
		t.Fatalf("I/Os: %d", len(r.blockIOs()))
	}
}

func TestZFSCOWCursorWrapsAround(t *testing.T) {
	// A tiny disk forces the COW allocator to wrap; allocation must stay
	// in the data region and never panic.
	cfg := DefaultZFSConfig()
	cfg.TxgInterval = 0
	cfg.ZILBytes = 0
	cfg.ARCBytes = 0
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	disk := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d",
		CapacitySectors: 8192}) // 4 MB
	z := NewZFS(eng, disk, cfg)
	f, err := z.Create("vol", 1<<20) // 1 MB = 8 records
	if err != nil {
		t.Fatal(err)
	}
	f.Prefill()
	// Rewrite the whole file several times: each txg reallocates 8 records,
	// exceeding the 4 MB region and wrapping.
	for round := 0; round < 8; round++ {
		for rec := int64(0); rec < 8; rec++ {
			f.Write(rec*(128<<10), 128<<10, false, func(error) {})
		}
		var done bool
		z.Sync(func(error) { done = true })
		for !done && eng.Step() {
		}
		if !done {
			t.Fatal("txg stalled")
		}
	}
	if disk.Errored() != 0 {
		t.Errorf("wrap-around produced %d I/O errors", disk.Errored())
	}
}

func TestExt3JournalWrapsAround(t *testing.T) {
	r := newFSRig(t)
	cfg := Ext3Config()
	cfg.JournalBytes = 64 << 10 // 16 records of 4 KB
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("log", 10<<20)
	journalEnd := uint64(64 + cfg.JournalBytes/512)
	for i := 0; i < 40; i++ {
		r.wait(t, func(done func(error)) { f.Append(4096, true, done) })
	}
	// All journal writes stayed inside the journal region.
	for _, io := range r.blockIOs() {
		if io.Cmd.Op.IsWrite() && io.Cmd.LBA >= 64 && io.Cmd.LBA < journalEnd {
			if io.Cmd.LastLBA() >= journalEnd {
				t.Fatalf("journal write crossed the region: %v", io.Cmd)
			}
		}
	}
	if r.disk.Errored() != 0 {
		t.Errorf("journal wrap errors: %d", r.disk.Errored())
	}
}

func TestPageCacheEvictionWritesBackDirty(t *testing.T) {
	r := newFSRig(t)
	cfg := UFSConfig()
	cfg.PageCacheBytes = 8 * 8192 // 8 pages only
	cfg.FlushInterval = 0
	p := NewPlain(r.eng, r.disk, cfg)
	f, _ := p.Create("a", 10<<20)
	// Dirty 32 pages through a tiny cache: evictions must write back.
	for i := int64(0); i < 32; i++ {
		f.Write(i*8192, 8192, false, func(error) {})
	}
	r.eng.RunUntil(simclock.Second)
	writes := 0
	for _, io := range r.blockIOs() {
		if io.Cmd.Op.IsWrite() {
			writes++
		}
	}
	if writes < 20 {
		t.Errorf("eviction writeback too low: %d disk writes for 32 dirty pages", writes)
	}
}

// dirtyCount reports the number of dirty resident pages.
func dirtyCount(c *pageCache) int {
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*pageEntry).dirty {
			n++
		}
	}
	return n
}
