package histogram

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentCountsExact inserts a known multiset from many goroutines and
// requires the snapshot to be bin-exact against a serial reference —
// concurrent inserts must never lose, duplicate or misplace a sample.
func TestConcurrentCountsExact(t *testing.T) {
	edges := IOLengthEdges()
	h := New("concurrent", "u", edges)
	const goroutines = 8
	const perG = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Insert(rng.Int63n(600000) + 1)
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Total != goroutines*perG {
		t.Fatalf("Total = %d, want %d", s.Total, goroutines*perG)
	}
	// Replay the same multiset serially into a reference histogram and
	// compare bins exactly.
	ref := New("ref", "u", edges)
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(g)))
		for i := 0; i < perG; i++ {
			ref.Insert(rng.Int63n(600000) + 1)
		}
	}
	rs := ref.Snapshot()
	for i := range s.Counts {
		if s.Counts[i] != rs.Counts[i] {
			t.Errorf("bin %d: concurrent %d, reference %d", i, s.Counts[i], rs.Counts[i])
		}
	}
	if s.Sum != rs.Sum || s.Min != rs.Min || s.Max != rs.Max {
		t.Errorf("summary mismatch: concurrent sum=%d min=%d max=%d, ref sum=%d min=%d max=%d",
			s.Sum, s.Min, s.Max, rs.Sum, rs.Min, rs.Max)
	}
}

// TestConcurrentSnapshotConsistentUnderHammer hammers one histogram from 8
// goroutines while concurrently snapshotting, asserting every snapshot is
// internally consistent (Total == sum of bins — exact by construction since
// Total is derived from the copied bins) and monotone versus the previous
// snapshot: no bin, Total or Sum ever goes backwards while inserts race the
// copy. This is the property the Prometheus exporter's cumulative buckets
// rely on across scrapes.
func TestConcurrentSnapshotConsistentUnderHammer(t *testing.T) {
	h := New("hammer", "u", IOLengthEdges())
	const writers = 8
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				h.Insert(rng.Int63n(600000) + 1)
			}
		}(int64(g))
	}
	prev := h.Snapshot()
	for i := 0; i < 300; i++ {
		s := h.Snapshot()
		var binSum int64
		for _, c := range s.Counts {
			binSum += c
		}
		if s.Total != binSum {
			t.Fatalf("snapshot %d: Total %d != sum of bins %d", i, s.Total, binSum)
		}
		if s.Total < prev.Total {
			t.Fatalf("snapshot %d: Total went backwards: %d -> %d", i, prev.Total, s.Total)
		}
		if s.Sum < prev.Sum {
			t.Fatalf("snapshot %d: Sum went backwards: %d -> %d", i, prev.Sum, s.Sum)
		}
		for b := range s.Counts {
			if s.Counts[b] < prev.Counts[b] {
				t.Fatalf("snapshot %d bin %d went backwards: %d -> %d",
					i, b, prev.Counts[b], s.Counts[b])
			}
		}
		prev = s
	}
	stop.Store(true)
	wg.Wait()
}

// TestMinMaxConcurrentInserts pins min/max exactness under concurrent
// inserts with the CAS loops gated behind a bounds check: goroutines insert
// disjoint ranges with known extrema and the final bounds must be exact,
// including extrema that appear only once, late, from a single goroutine.
func TestMinMaxConcurrentInserts(t *testing.T) {
	h := New("minmax", "u", SeekDistanceEdges())
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(g))
			for i := 0; i < perG; i++ {
				h.Insert(rng.Int63n(1000) - 500)
			}
			// Each goroutine lands one extreme pair late; the global
			// extrema are known exactly.
			h.Insert(-1000000 - g)
			h.Insert(1000000 + g)
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	wantMin, wantMax := int64(-1000000-(goroutines-1)), int64(1000000+(goroutines-1))
	if s.Min != wantMin || s.Max != wantMax {
		t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, wantMin, wantMax)
	}
	if s.Total != goroutines*(perG+2) {
		t.Fatalf("Total = %d, want %d", s.Total, goroutines*(perG+2))
	}
}

// TestConcurrentResetZeroes verifies Reset clears every cell and the
// extrema after concurrent inserts.
func TestConcurrentResetZeroes(t *testing.T) {
	h := New("reset", "u", LatencyEdges())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Insert(int64(i))
			}
		}()
	}
	wg.Wait()
	if h.Total() == 0 {
		t.Fatal("expected samples before reset")
	}
	h.Reset()
	s := h.Snapshot()
	if s.Total != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
	for i, c := range s.Counts {
		if c != 0 {
			t.Fatalf("bin %d nonzero after reset: %d", i, c)
		}
	}
}

// TestHistogramSpaceIndependentOfGOMAXPROCS pins the paper's O(m) space: a
// histogram holds one cell per bin plus the sum cell however many cores the
// process may run on.
func TestHistogramSpaceIndependentOfGOMAXPROCS(t *testing.T) {
	edges := IOLengthEdges()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	narrow := New("narrow", "u", edges)
	runtime.GOMAXPROCS(64)
	wide := New("wide", "u", edges)
	want := len(edges) + 2 // bins incl. overflow, plus the sum cell
	if len(narrow.cells) != want || len(wide.cells) != want {
		t.Fatalf("cells = %d at GOMAXPROCS 1, %d at 64; want %d at both",
			len(narrow.cells), len(wide.cells), want)
	}
}
