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
// Design constraints mirror the fast path they observe: the observation
// counter is a plain add inside the collector's critical section
// (Collector.observations), the others are single atomic adds off it, and
// the wall-clock ns/observe histogram is sampled 1-in-64 so the act of
// measuring does not distort the O(1) cost being measured.

// selfSampleMask selects one in every 64 fast-path observations for
// wall-clock timing (observation count & mask == 0).
const selfSampleMask = 63

// observeNsEdges are the bin upper edges for the sampled fast-path cost
// histogram, in nanoseconds. The expected cost is ~80 ns for an issue and
// ~30 ns for a completion (bench/ leaf_observe, core.on_issue_ns and
// core.on_complete_ns) plus the time.Now pair; the range leaves room for
// preemption inside the section and cold caches.
func observeNsEdges() []int64 {
	return []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192,
		16384, 32768, 65536, 131072, 262144}
}

// selfStats is the per-collector self-instrumentation state. Unlike the
// workload histograms it is allocated eagerly (it is a few words plus one
// small histogram) and survives Reset: the service's own cost history is
// independent of the guest data's lifecycle.
type selfStats struct {
	// contended counts fast-path calls that found the collector's mutex
	// held by another goroutine — the only blocking point on the fast
	// path.
	contended atomic.Int64
	// snapshots counts Snapshot() calls that returned data;
	// lastSnapshotNanos is the wall-clock time of the most recent one,
	// from which the exporter derives snapshot staleness.
	snapshots         atomic.Int64
	lastSnapshotNanos atomic.Int64
	// observeNs is the sampled wall-clock cost of one fast-path call,
	// timed from inside the critical section: the wait for the lock is
	// not in it.
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
	// Contended counts fast-path calls that had to wait for the
	// collector's mutex.
	Contended int64 `json:"contended"`
	// Snapshots counts successful Snapshot() calls;
	// LastSnapshotUnixNano is the wall-clock time of the latest.
	Snapshots            int64 `json:"snapshots"`
	LastSnapshotUnixNano int64 `json:"lastSnapshotUnixNano"`
	// ObserveNs is the sampled per-call cost histogram in nanoseconds. A
	// sample starts once the call holds the collector's mutex, so it is
	// the cost of observing and excludes any wait for the lock (Contended
	// counts those).
	ObserveNs *histogram.Snapshot `json:"observeNs"`
}

// MeanObserveNanos is the sampled mean wall-clock cost of one fast-path
// call in nanoseconds, lock wait excluded — the live analogue of Table 2's
// CPU row, which is measured uncontended. Zero until a sample lands.
func (s *SelfSnapshot) MeanObserveNanos() float64 { return s.ObserveNs.Mean() }

// SelfStats copies the collector's self-telemetry. Unlike Snapshot it never
// returns nil and does not itself count as a snapshot: reading the service's
// own overhead must not perturb the staleness signal it reports.
func (c *Collector) SelfStats() *SelfSnapshot {
	obs := c.self.observeNs.Snapshot()
	c.mu.Lock()
	observations := c.observations
	c.mu.Unlock()
	return &SelfSnapshot{
		VM:                   c.vm,
		Disk:                 c.disk,
		Observations:         observations,
		Sampled:              obs.Total,
		Contended:            c.self.contended.Load(),
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
