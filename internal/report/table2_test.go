package report

import (
	"math"
	"runtime"
	"testing"

	"vscsistats/internal/core"
)

// TestFastPathCostSane: on a short fixed-length run, the computed overhead
// percentage is finite and non-negative, and the live self-telemetry
// agrees in order of magnitude with a sane per-command cost.
func TestFastPathCostSane(t *testing.T) {
	const iters = 200_000
	cost := MeasureFastPathCost(iters)

	if math.IsNaN(cost.OverheadPct) || math.IsInf(cost.OverheadPct, 0) {
		t.Fatalf("overhead%% not finite: %v", cost.OverheadPct)
	}
	if cost.OverheadPct < 0 {
		t.Errorf("overhead%% negative after clamp: %v", cost.OverheadPct)
	}
	if cost.OverheadNs < 0 {
		t.Errorf("overhead ns negative after clamp: %v", cost.OverheadNs)
	}
	if cost.PerCmdOffNs <= 0 || cost.PerCmdOnNs <= 0 {
		t.Errorf("per-command costs: off %v on %v, want > 0", cost.PerCmdOffNs, cost.PerCmdOnNs)
	}

	// Live self-telemetry from the enabled arm: issue+complete per command,
	// 1-in-64 of them timed, and a plausible mean (sub-10µs on any machine
	// this runs on; zero would mean the sampler never fired).
	if want := int64(2 * iters); cost.LiveObservations != want {
		t.Errorf("live observations = %d, want %d", cost.LiveObservations, want)
	}
	if want := int64(2 * iters / 64); cost.LiveSampled != want {
		t.Errorf("live sampled = %d, want %d", cost.LiveSampled, want)
	}
	if cost.LiveMeanObserveNs <= 0 || cost.LiveMeanObserveNs > 1e7 {
		t.Errorf("live mean observe = %v ns, want (0, 1e7)", cost.LiveMeanObserveNs)
	}
}

// TestCollectorMemoryMatchesHeap pins Table 2's memory row to what the heap
// says: the bytes Enable allocates per collector, measured as a
// runtime.MemStats delta over many collectors, within 15 % of the computed
// figure (the allocator's size classes round each object up a little).
func TestCollectorMemoryMatchesHeap(t *testing.T) {
	const n = 256
	core.NewCollector("warm", "up").Enable() // builds the shared per-layout lookup tables
	cols := make([]*core.Collector, n)
	for i := range cols {
		cols[i] = core.NewCollector("vm", "disk")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, c := range cols {
		c.Enable()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	measured := float64(after.HeapAlloc-before.HeapAlloc) / n
	computed := float64(collectorMemoryBytes())
	if d := math.Abs(computed-measured) / measured; d > 0.15 {
		t.Errorf("computed %v B per collector, heap says %.0f B (%.0f%% apart, want <= 15%%)",
			computed, measured, 100*d)
	}
	runtime.KeepAlive(cols)
}
