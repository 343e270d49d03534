package core

import (
	"sync/atomic"
	"time"

	"vscsistats/internal/histogram"
)

// Self-telemetry: the characterization service instrumenting itself. The
// paper proves the service cheap with an offline benchmark (Table 2); these
// counters make the same overhead a live metric that an always-on deployment
// can watch from the outside (the /metrics exporter in internal/telemetry).
//
// Design constraints mirror the fast path they observe: counters are single
// atomic adds, and the wall-clock ns/observe histogram is sampled 1-in-64 so
// the act of measuring does not distort the O(1) cost being measured.

// selfSampleMask selects one in every 64 fast-path observations for
// wall-clock timing (observation count & mask == 0).
const selfSampleMask = 63

// observeNsEdges are the bin upper edges for the sampled fast-path cost
// histogram, in nanoseconds. The expected cost is ~170 ns for an issue and
// ~35 ns for a completion (bench/ leaf_observe, core.on_issue_ns and
// core.on_complete_ns); the range leaves room for contention spikes and
// cold caches.
func observeNsEdges() []int64 {
	return []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192,
		16384, 32768, 65536, 131072, 262144}
}

// selfStats is the per-collector self-instrumentation state. Unlike the
// workload histograms it is allocated eagerly (it is a few words plus one
// small histogram) and survives Reset: the service's own cost history is
// independent of the guest data's lifecycle.
type selfStats struct {
	// observations counts block-I/O fast-path calls (OnIssue and
	// OnComplete each count one) while the service was enabled.
	observations atomic.Int64
	// contended counts OnIssue calls that found the per-collector stream
	// mutex held by another issuing goroutine — the only blocking point
	// on the fast path.
	contended atomic.Int64
	// dropped counts observations that arrived in the Enable race window
	// (enabled flag set, histogram set not yet published) and recorded
	// nothing.
	dropped atomic.Int64
	// snapshots counts Snapshot() calls that returned data;
	// lastSnapshotNanos is the wall-clock time of the most recent one,
	// from which the exporter derives snapshot staleness.
	snapshots         atomic.Int64
	lastSnapshotNanos atomic.Int64
	// observeNs is the sampled wall-clock cost of one fast-path call.
	observeNs *histogram.Histogram
}

func newSelfStats() *selfStats {
	return &selfStats{
		observeNs: histogram.New("Fast-Path Observe Cost", "nanoseconds", observeNsEdges()),
	}
}

// SelfSnapshot is an immutable copy of a collector's self-telemetry: what
// the characterization service itself cost, live.
type SelfSnapshot struct {
	VM, Disk string

	// Observations counts enabled fast-path calls (issue + complete).
	Observations int64 `json:"observations"`
	// Sampled is how many observations were wall-clock timed (1-in-64).
	Sampled int64 `json:"sampled"`
	// Contended counts stream-mutex collisions between issuing goroutines.
	Contended int64 `json:"contended"`
	// Dropped counts observations lost to the Enable race window.
	Dropped int64 `json:"dropped"`
	// Snapshots counts successful Snapshot() calls;
	// LastSnapshotUnixNano is the wall-clock time of the latest.
	Snapshots            int64 `json:"snapshots"`
	LastSnapshotUnixNano int64 `json:"lastSnapshotUnixNano"`
	// ObserveNs is the sampled per-call cost histogram in nanoseconds.
	ObserveNs *histogram.Snapshot `json:"observeNs"`
}

// MeanObserveNanos is the sampled mean wall-clock cost of one fast-path
// call in nanoseconds — the live analogue of Table 2's CPU row. Zero until
// a sample lands.
func (s *SelfSnapshot) MeanObserveNanos() float64 { return s.ObserveNs.Mean() }

// SelfStats copies the collector's self-telemetry. Unlike Snapshot it never
// returns nil and does not itself count as a snapshot: reading the service's
// own overhead must not perturb the staleness signal it reports.
func (c *Collector) SelfStats() *SelfSnapshot {
	obs := c.self.observeNs.Snapshot()
	return &SelfSnapshot{
		VM:                   c.vm,
		Disk:                 c.disk,
		Observations:         c.self.observations.Load(),
		Sampled:              obs.Total,
		Contended:            c.self.contended.Load(),
		Dropped:              c.self.dropped.Load(),
		Snapshots:            c.self.snapshots.Load(),
		LastSnapshotUnixNano: c.self.lastSnapshotNanos.Load(),
		ObserveNs:            obs,
	}
}

// noteSnapshot records a successful Snapshot() for the staleness gauge.
func (s *selfStats) noteSnapshot() {
	s.snapshots.Add(1)
	s.lastSnapshotNanos.Store(time.Now().UnixNano())
}
