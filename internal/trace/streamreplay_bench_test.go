package trace

import (
	"runtime"
	"sync"
	"testing"

	"vscsistats/internal/core"
)

// The replay benchmarks all consume the same synthesized 1M-record trace
// (built once; Synthesize is seed-deterministic, so every machine measures
// the same workload). BenchmarkTraceReplayLegacy1M is the
// materialize-and-sort baseline; BenchmarkTraceReplay1M is the streaming
// engine pinned single-worker (the honest core-for-core comparison;
// TestStreamingReplayAtMostHalfLegacy fences the same pair at ≤0.5×
// legacy on a 64k-record trace, and bench's trace_replay workload gates
// its absolute cost); BenchmarkTraceReplay1MParallel lets the worker pool
// use GOMAXPROCS (run with -cpu 1,4 to see the fan-out).
var bench1M struct {
	once sync.Once
	recs []Record
}

func bench1MRecords() []Record {
	bench1M.once.Do(func() { bench1M.recs = Synthesize(1, 1<<20) })
	return bench1M.recs
}

func BenchmarkTraceReplayLegacy1M(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col := core.NewCollector("v", "d")
		col.Enable()
		Replay(recs, col)
	}
}

func BenchmarkTraceReplay1M(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceReplay1MParallel(b *testing.B) {
	recs := bench1MRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}
