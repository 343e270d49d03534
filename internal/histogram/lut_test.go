package histogram

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// refBinIndex is the binary search the LUT replaces — the reference
// implementation for equivalence tests.
func refBinIndex(edges []int64, v int64) int {
	return sort.Search(len(edges), func(i int) bool { return edges[i] >= v })
}

// TestLUTMatchesBinarySearch pins the lookup table to the binary search it
// replaces, over every standard bin set and the full int64 domain.
func TestLUTMatchesBinarySearch(t *testing.T) {
	sets := map[string][]int64{
		"ioLength":     IOLengthEdges(),
		"seekDistance": SeekDistanceEdges(),
		"latency":      LatencyEdges(),
		"interarrival": InterarrivalEdges(),
		"outstanding":  OutstandingEdges(),
		"observeNs":    {64, 128, 256, 512, 1024},
	}
	for name, edges := range sets {
		lut := newBinLUT(edges)
		if lut == nil {
			t.Fatalf("%s: LUT construction failed", name)
		}
		// Exhaustive near every edge, the small-table boundary and the
		// extremes; randomized everywhere else.
		var probes []int64
		for _, e := range edges {
			for d := int64(-2); d <= 2; d++ {
				probes = append(probes, e+d)
			}
		}
		probes = append(probes, 0, 1, -1, lutSmallSpan-1, lutSmallSpan,
			lutSmallSpan+1, -lutSmallSpan, -lutSmallSpan-1,
			math.MaxInt64, math.MinInt64, math.MinInt64+1)
		for _, v := range probes {
			if got, want := lut.lookup(v), refBinIndex(edges, v); got != want {
				t.Errorf("%s: lookup(%d) = %d, want %d", name, v, got, want)
			}
		}
		f := func(v int64) bool { return lut.lookup(v) == refBinIndex(edges, v) }
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestLUTMatchesBinarySearchRandomLayouts extends the equivalence to
// arbitrary strictly-increasing layouts, including negative-heavy ones.
func TestLUTMatchesBinarySearchRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		seen := make(map[int64]bool)
		var edges []int64
		for len(edges) < n {
			v := rng.Int63n(1<<40) - 1<<39
			if !seen[v] {
				seen[v] = true
				edges = append(edges, v)
			}
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		lut := newBinLUT(edges)
		if lut == nil {
			t.Fatalf("trial %d: LUT construction failed", trial)
		}
		for probe := 0; probe < 2000; probe++ {
			v := rng.Int63n(1<<41) - 1<<40
			if got, want := lut.lookup(v), refBinIndex(edges, v); got != want {
				t.Fatalf("trial %d edges %v: lookup(%d) = %d, want %d",
					trial, edges, v, got, want)
			}
		}
	}
}

// TestLUTFallbackWideLayout checks that layouts beyond the uint8 bin space
// fall back to binary search and still count correctly.
func TestLUTFallbackWideLayout(t *testing.T) {
	edges := make([]int64, 300)
	for i := range edges {
		edges[i] = int64(i) * 10
	}
	if lutFor(edges) != nil {
		t.Fatal("expected no LUT for a 301-bin layout")
	}
	h := New("wide", "u", edges)
	h.Insert(25)
	s := h.Snapshot()
	if s.Counts[refBinIndex(edges, 25)] != 1 || s.Total != 1 {
		t.Fatalf("fallback insert landed wrong: %+v", s.Counts[:5])
	}
}
