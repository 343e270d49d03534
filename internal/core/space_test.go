package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// enableBytes returns the bytes n Enable calls allocate per collector at the
// given GOMAXPROCS, transient garbage included (TotalAlloc is cumulative, so
// the figure is exact). The collector is off meanwhile: a cycle starting
// inside the window starts a mark worker per P, and at 64 Ps their
// goroutines are tens of KB that Enable did not allocate.
func enableBytes(procs, n int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cols := make([]*Collector, n)
	for i := range cols {
		cols[i] = NewCollector("vm", "disk")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cols {
		c.Enable()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// TestCollectorSpaceIndependentOfGOMAXPROCS pins the paper's O(m) space per
// virtual disk: what Enable allocates does not depend on how many cores the
// process may run on, and a disabled collector holds nothing.
func TestCollectorSpaceIndependentOfGOMAXPROCS(t *testing.T) {
	NewCollector("warm", "up").Enable() // builds the shared per-layout lookup tables
	narrow, wide := enableBytes(1, 64), enableBytes(64, 64)
	if narrow != wide {
		t.Fatalf("Enable allocates %d B at GOMAXPROCS 1, %d B at 64", narrow, wide)
	}
	c := NewCollector("vm", "disk")
	if c.MemoryBytes() != 0 {
		t.Fatalf("disabled collector reports %d B", c.MemoryBytes())
	}
	c.Enable()
	if got := uint64(c.MemoryBytes()); got == 0 || got > narrow {
		t.Fatalf("MemoryBytes = %d, Enable allocated %d", got, narrow)
	}
}
