package storage

import (
	"math/rand"
	"testing"

	"vscsistats/internal/simclock"
)

// TestRAID5SoakMatchesGolden drives 10 000 seeded reads and writes, 16 at a
// time, through a RAID5 array with a small read cache with read-ahead, a
// write-back cache small enough to overflow into write-through, and
// injected media errors — every path an arrayOp can take. The counters are
// those the array produced for the same seed before its failure and rebuild
// paths were deleted (same eng.After order, same RNG draws), and the op pool
// ends no larger than the most ops ever live.
func TestRAID5SoakMatchesGolden(t *testing.T) {
	const total, depth = 10000, 16
	eng := simclock.NewEngine()
	a := NewArray(eng, ArrayConfig{
		Name: "soak", Level: RAID5, Disks: 5,
		DiskParams:     DefaultDiskParams(1 << 22),
		StripeSectors:  32,
		ReadCacheBytes: 256 * cacheLineSectors * 512,
		ReadAheadLines: 2,
		WriteBackBytes: 24 * cacheLineSectors * 512,
		ReadErrorRate:  0.01,
		WriteErrorRate: 0.01,
		Seed:           7,
	})

	rng := rand.New(rand.NewSource(11))
	lines := a.CapacitySectors() / cacheLineSectors / 64 // a region the cache partly covers
	issued, inflight, failed := 0, 0, 0
	var next func()
	done := func(ok bool) {
		inflight--
		if !ok {
			failed++
		}
		next()
	}
	next = func() {
		if issued == total {
			return
		}
		issued++
		inflight++
		line := uint64(rng.Int63n(int64(lines)))
		switch r := rng.Intn(100); {
		case r < 40:
			// Writes cover exactly one cache line (four chunks), so one
			// destage is in flight per dirty line.
			a.Write(line*cacheLineSectors, cacheLineSectors, done)
		case r < 60:
			// A sequential run, for the read-ahead paths.
			a.Read(uint64(issued%512)*16, 16, done)
		default:
			a.Read(line*cacheLineSectors+uint64(rng.Intn(64)), uint32(8+rng.Intn(300)), done)
		}
	}
	for i := 0; i < depth; i++ {
		next()
	}
	// State only changes inside events, so sampling after every one sees
	// the true peak of live ops: commands in flight plus destages.
	peak := 0
	for eng.Step() {
		if live := inflight + a.cache.Dirty(); live > peak {
			peak = live
		}
	}

	var served uint64
	for _, d := range a.disks {
		served += d.served
		if queueDepth(d) != 0 {
			t.Errorf("spindle left with queue depth %d", queueDepth(d))
		}
	}
	got := []uint64{a.Reads(), a.Writes(), a.readErrs, a.wrErrs,
		a.cache.hits, a.cache.misses, served, uint64(failed), eng.Dispatched(), uint64(eng.Now())}
	want := []uint64{5949, 3947, 73, 31, 2099, 3850, 53631, 104, 68141, 39463867703}
	names := []string{"reads", "writes", "readErrs", "wrErrs",
		"cacheHits", "cacheMisses", "served", "failed", "dispatched", "now"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s = %d, golden %d", names[i], got[i], want[i])
		}
	}
	if inflight != 0 || a.cache.Dirty() != 0 {
		t.Fatalf("not quiescent: %d in flight, %d dirty lines", inflight, a.cache.Dirty())
	}
	if len(a.freeOps) > peak {
		t.Errorf("%d pooled ops for a peak of %d live (commands + destages)", len(a.freeOps), peak)
	}
}
