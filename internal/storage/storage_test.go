package storage

import (
	"testing"
	"testing/quick"

	"vscsistats/internal/simclock"
)

// queueDepth is a disk's queued-plus-active operations.
func queueDepth(d *Disk) int {
	n := len(d.reads) - d.readHead + len(d.writes)
	if d.busy {
		n++
	}
	return n
}

func testParams() DiskParams { return DefaultDiskParams(1 << 28) }

func TestDiskSequentialNeedsNoPositioning(t *testing.T) {
	eng := simclock.NewEngine()
	d := NewDisk(eng, testParams(), simclock.NewRand(1))
	// Prime the head at LBA 128.
	d.Submit(0, 128, false, func() {})
	eng.Run()
	seq := d.ServiceTime(128, 16)
	rnd := d.ServiceTime(10_000_000, 16)
	if seq >= rnd {
		t.Errorf("sequential %v should beat random %v", seq, rnd)
	}
	// Sequential = per-op overhead + transfer only.
	want := testParams().PerOpOverhead +
		simclock.Time(16*512*int64(simclock.Second)/testParams().TransferBytesPerSec)
	if seq != want {
		t.Errorf("sequential service = %v, want %v", seq, want)
	}
}

func TestDiskSeekGrowsWithDistance(t *testing.T) {
	eng := simclock.NewEngine()
	// Zero rotation variance distorts nothing: use a fixed rng but compare
	// medians over many samples.
	d := NewDisk(eng, testParams(), simclock.NewRand(2))
	avg := func(lba uint64) simclock.Time {
		var sum simclock.Time
		const n = 200
		for i := 0; i < n; i++ {
			d.head = 0
			sum += d.ServiceTime(lba, 16)
		}
		return sum / n
	}
	near, far := avg(10_000), avg(200_000_000)
	if far <= near {
		t.Errorf("far seek %v should exceed near seek %v", far, near)
	}
}

func TestDiskFIFOAndBusyAccounting(t *testing.T) {
	eng := simclock.NewEngine()
	d := NewDisk(eng, testParams(), simclock.NewRand(3))
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		d.Submit(uint64(i)*1_000_000, 16, false, func() { order = append(order, i) })
	}
	if queueDepth(d) != 3 {
		t.Errorf("QueueDepth = %d, want 3", queueDepth(d))
	}
	eng.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("completion order %v", order)
		}
	}
	if d.served != 3 || queueDepth(d) != 0 {
		t.Errorf("Served=%d depth=%d", d.served, queueDepth(d))
	}
	if d.busyTime <= 0 || d.busyTime > eng.Now() {
		t.Errorf("BusyTime %v out of range (now %v)", d.busyTime, eng.Now())
	}
}

// TestDiskReadQueueConsumedFromHead: the read FIFO is consumed from a moving
// head, so QueueDepth must count from it, and a queue that never empties
// must not grow its buffer with the number of reads that passed through.
func TestDiskReadQueueConsumedFromHead(t *testing.T) {
	eng := simclock.NewEngine()
	d := NewDisk(eng, testParams(), simclock.NewRand(3))
	submitted := 0
	var refill func()
	refill = func() {
		if submitted < 5000 {
			submitted++
			d.Submit(uint64(submitted%100)*1000, 16, false, refill)
		}
	}
	for i := 0; i < 6; i++ {
		refill()
	}
	eng.Step() // one read served and replaced: one in service, five queued
	if queueDepth(d) != 6 {
		t.Errorf("QueueDepth = %d with a consumed prefix, want 6", queueDepth(d))
	}
	eng.Run()
	if d.served != 5000 || queueDepth(d) != 0 {
		t.Errorf("Served=%d depth=%d", d.served, queueDepth(d))
	}
	if cap(d.reads) > 16 {
		t.Errorf("read queue buffer grew to %d for 6 reads in flight", cap(d.reads))
	}
}

func TestDiskValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params should panic")
		}
	}()
	NewDisk(simclock.NewEngine(), DiskParams{}, simclock.NewRand(1))
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(3 * cacheLineSectors * 512) // 3 lines
	if c.Lookup(0, 8) {
		t.Fatal("empty cache hit")
	}
	c.Insert(0, 8)
	if !c.Lookup(0, 8) {
		t.Fatal("inserted line missed")
	}
	if c.hits != 1 || c.misses != 1 {
		t.Errorf("hits/misses = %d/%d", c.hits, c.misses)
	}
	// Fill lines 1,2 then 3 evicts line 0's... LRU order: touch 0 last.
	c.Insert(cacheLineSectors, 8)   // line 1
	c.Insert(2*cacheLineSectors, 8) // line 2
	c.Lookup(0, 8)                  // promote line 0
	c.Insert(3*cacheLineSectors, 8) // line 3 evicts line 1 (LRU)
	if c.Contains(cacheLineSectors) {
		t.Error("line 1 should have been evicted")
	}
	if !c.Contains(0) {
		t.Error("promoted line 0 should survive")
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCacheMultiLineExtent(t *testing.T) {
	c := NewCache(10 * cacheLineSectors * 512)
	// A 3-line extent is a hit only when all lines are resident.
	c.Insert(0, 2*cacheLineSectors) // lines 0,1
	if c.Lookup(0, 3*cacheLineSectors) {
		t.Error("partial residency must miss")
	}
	c.Insert(2*cacheLineSectors, cacheLineSectors)
	if !c.Lookup(0, 3*cacheLineSectors) {
		t.Error("full residency must hit")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if c.Enabled() {
		t.Error("zero-capacity cache should be disabled")
	}
	c.Insert(0, 128)
	if c.Lookup(0, 8) {
		t.Error("disabled cache must always miss")
	}
	if c.Len() != 0 {
		t.Error("disabled cache must stay empty")
	}
}

func TestCacheInsertAhead(t *testing.T) {
	c := NewCache(100 * cacheLineSectors * 512)
	c.Insert(0, cacheLineSectors)
	c.InsertAhead(0, cacheLineSectors, 2) // lines 1 and 2
	if !c.Contains(cacheLineSectors) || !c.Contains(2*cacheLineSectors) {
		t.Error("read-ahead lines missing")
	}
	if c.Contains(3 * cacheLineSectors) {
		t.Error("read-ahead overshot")
	}
	c.InsertAhead(0, cacheLineSectors, 0) // no-op
}

func TestCacheDirtyAccounting(t *testing.T) {
	c := NewCache(10 * cacheLineSectors * 512)
	// Dirty 5 lines; re-dirtying an already dirty line reports 0 new work.
	if n := c.MarkDirty(0, 5*cacheLineSectors); n != 5 {
		t.Fatalf("MarkDirty new lines = %d", n)
	}
	if n := c.MarkDirty(0, cacheLineSectors); n != 0 {
		t.Errorf("re-dirty reported %d new lines", n)
	}
	c.Destaged(0, 2*cacheLineSectors)
	if c.Dirty() != 3 {
		t.Errorf("Dirty = %d", c.Dirty())
	}
	c.Destaged(0, 10*cacheLineSectors) // idempotent over-clean
	if c.Dirty() != 0 {
		t.Errorf("Dirty after full destage = %d", c.Dirty())
	}
}

func TestMapExtentRAID0(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, ArrayConfig{
		Name: "t", Level: RAID0, Disks: 4,
		DiskParams: testParams(), StripeSectors: 128, Seed: 1,
	})
	// 256 sectors starting at 64: chunks [64,128)@d0, [0,128)@d1, [0,64)@d2.
	chunks := a.mapExtent(64, 256)
	want := []chunk{
		{disk: 0, diskLBA: 64, sectors: 64, parity: -1},
		{disk: 1, diskLBA: 0, sectors: 128, parity: -1},
		{disk: 2, diskLBA: 0, sectors: 64, parity: -1},
	}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %+v", chunks)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunk %d = %+v, want %+v", i, chunks[i], want[i])
		}
	}
	// Wrap to the second stripe row on disk 0.
	chunks = a.mapExtent(512, 128)
	if chunks[0].disk != 0 || chunks[0].diskLBA != 128 {
		t.Errorf("row wrap: %+v", chunks[0])
	}
}

func TestMapExtentRAID5SkipsParityDisk(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, ArrayConfig{
		Name: "t", Level: RAID5, Disks: 4,
		DiskParams: testParams(), StripeSectors: 128, Seed: 1,
	})
	// Row 0: parity on disk 0, data on 1,2,3.
	for i, wantDisk := range []int{1, 2, 3} {
		c := a.mapExtent(uint64(i)*128, 128)[0]
		if c.disk != wantDisk || c.parity != 0 {
			t.Errorf("stripe %d -> disk %d parity %d, want disk %d parity 0",
				i, c.disk, c.parity, wantDisk)
		}
	}
	// Row 1: parity on disk 1.
	c := a.mapExtent(3*128, 128)[0]
	if c.parity != 1 || c.disk == 1 {
		t.Errorf("row 1 chunk: %+v", c)
	}
}

// Property: RAID0 extent mapping conserves sectors and never exceeds the
// stripe unit per chunk.
func TestMapExtentConservesSectors(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, ArrayConfig{
		Name: "t", Level: RAID0, Disks: 5,
		DiskParams: testParams(), StripeSectors: 128, Seed: 1,
	})
	f := func(lba uint32, sectors uint16) bool {
		s := uint32(sectors%2048) + 1
		chunks := a.mapExtent(uint64(lba), s)
		var sum uint32
		for _, c := range chunks {
			if c.sectors == 0 || c.sectors > 128 || c.disk < 0 || c.disk >= 5 {
				return false
			}
			sum += c.sectors
		}
		return sum == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArrayReadMissThenHit(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, CX3Config(1))
	var first, second simclock.Time
	start := eng.Now()
	a.Read(0, 16, func(ok bool) {
		if !ok {
			t.Error("read failed")
		}
		first = eng.Now() - start
		mid := eng.Now()
		a.Read(0, 16, func(ok bool) { second = eng.Now() - mid })
	})
	eng.Run()
	if first == 0 || second == 0 {
		t.Fatal("reads did not complete")
	}
	if second >= first {
		t.Errorf("cache hit %v should beat miss %v", second, first)
	}
	if a.cache.hits != 1 || a.cache.misses != 1 {
		t.Errorf("cache hits/misses = %d/%d", a.cache.hits, a.cache.misses)
	}
	if a.Reads() != 2 {
		t.Errorf("Reads = %d", a.Reads())
	}
}

func TestArrayNoCacheAlwaysMisses(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, CX3NoCacheConfig(1))
	times := make([]simclock.Time, 0, 2)
	var t0 simclock.Time
	a.Read(0, 16, func(bool) {
		times = append(times, eng.Now()-t0)
		t0 = eng.Now()
		a.Read(0, 16, func(bool) { times = append(times, eng.Now()-t0) })
	})
	eng.Run()
	// Second read re-reads the same LBA: head is just past it, so it pays
	// a rotation. Both must exceed the pure cache-hit time scale.
	for i, d := range times {
		if d < 200*simclock.Microsecond {
			t.Errorf("read %d = %v suspiciously fast with cache off", i, d)
		}
	}
}

func TestArrayWriteBackAbsorbsThenSaturates(t *testing.T) {
	eng := simclock.NewEngine()
	cfg := CX3Config(1)
	cfg.WriteBackBytes = 2 * cacheLineSectors * 512 // 2 lines only
	a := NewArray(eng, cfg)
	var lat []simclock.Time
	issue := func(lba uint64) {
		t0 := eng.Now()
		a.Write(lba, 128, func(ok bool) { lat = append(lat, eng.Now()-t0) })
	}
	// Two absorbed writes, then a third while the cache is full.
	issue(0)
	issue(10 * cacheLineSectors)
	issue(20 * cacheLineSectors)
	eng.Run()
	if len(lat) != 3 {
		t.Fatal("writes missing")
	}
	if lat[0] > simclock.Millisecond || lat[1] > simclock.Millisecond {
		t.Errorf("absorbed writes too slow: %v", lat[:2])
	}
	if lat[2] < lat[0] {
		t.Errorf("saturated write %v should be slower than absorbed %v", lat[2], lat[0])
	}
	if a.Writes() != 3 {
		t.Errorf("Writes = %d", a.Writes())
	}
}

func TestArraySequentialPrefetchTurnsMissesIntoHits(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, CX3Config(1))
	hits0 := a.cache.hits
	// Read 16 consecutive 64 KB lines; after the first two misses the
	// read-ahead should cover most of the rest.
	var next func(i int)
	next = func(i int) {
		if i == 16 {
			return
		}
		a.Read(uint64(i)*cacheLineSectors, cacheLineSectors, func(bool) { next(i + 1) })
	}
	next(0)
	eng.Run()
	hits := a.cache.hits - hits0
	if hits < 10 {
		t.Errorf("sequential stream got only %d/16 hits", hits)
	}
}

func TestArrayErrorInjection(t *testing.T) {
	eng := simclock.NewEngine()
	cfg := LocalDiskConfig(1)
	cfg.ReadErrorRate = 1.0
	cfg.WriteErrorRate = 1.0
	a := NewArray(eng, cfg)
	var readOK, writeOK *bool
	a.Read(0, 8, func(ok bool) { readOK = &ok })
	a.Write(0, 8, func(ok bool) { writeOK = &ok })
	eng.Run()
	if readOK == nil || *readOK {
		t.Error("read should have failed")
	}
	if writeOK == nil || *writeOK {
		t.Error("write should have failed")
	}
	if a.readErrs != 1 || a.wrErrs != 1 {
		t.Errorf("error counters: %d/%d", a.readErrs, a.wrErrs)
	}
}

func TestArrayFlush(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, CX3Config(1))
	flushed := false
	a.Flush(func() { flushed = true })
	eng.Run()
	if !flushed {
		t.Error("flush never completed")
	}
}

func TestArrayValidation(t *testing.T) {
	eng := simclock.NewEngine()
	bad := []ArrayConfig{
		{Level: RAID0, Disks: 0, DiskParams: testParams(), StripeSectors: 128},
		{Level: RAID5, Disks: 2, DiskParams: testParams(), StripeSectors: 128},
		{Level: RAID0, Disks: 2, DiskParams: testParams(), StripeSectors: 0},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			NewArray(eng, cfg)
		}()
	}
	a := NewArray(eng, LocalDiskConfig(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range extent should panic")
			}
		}()
		a.Read(a.CapacitySectors(), 8, func(bool) {})
	}()
}

func TestArrayCapacityRAID5ExcludesParity(t *testing.T) {
	eng := simclock.NewEngine()
	r0 := NewArray(eng, ArrayConfig{Name: "r0", Level: RAID0, Disks: 4,
		DiskParams: testParams(), StripeSectors: 128, Seed: 1})
	r5 := NewArray(eng, ArrayConfig{Name: "r5", Level: RAID5, Disks: 4,
		DiskParams: testParams(), StripeSectors: 128, Seed: 1})
	if r5.CapacitySectors() != r0.CapacitySectors()/4*3 {
		t.Errorf("RAID5 capacity %d vs RAID0 %d", r5.CapacitySectors(), r0.CapacitySectors())
	}
}

func TestArrayLinkTimeScalesWithSize(t *testing.T) {
	eng := simclock.NewEngine()
	a := NewArray(eng, SymmetrixConfig(1))
	var small, large simclock.Time
	t0 := eng.Now()
	a.Read(0, 16, func(bool) { small = eng.Now() - t0 })
	eng.Run()
	// Second read of the same extent hits cache; a 1 MB cached read must
	// still take longer than an 8 KB cached read because of the wire.
	t1 := eng.Now()
	a.Read(0, 16, func(bool) { small = eng.Now() - t1 })
	eng.Run()
	a.Read(1<<20, 2048, func(bool) {})
	eng.Run()
	t2 := eng.Now()
	a.Read(1<<20, 2048, func(bool) { large = eng.Now() - t2 })
	eng.Run()
	if large <= small {
		t.Errorf("cached 1MB read %v should exceed cached 8K read %v", large, small)
	}
	if large < 2*simclock.Millisecond {
		t.Errorf("1MB at ~400MB/s should be >= 2.5ms, got %v", large)
	}
}
