package core

import (
	"sync"
	"testing"

	"vscsistats/internal/simclock"
)

// TestSelfStatsCounts verifies the observation counter, the 1-in-64 sample
// rate and the snapshot counter.
func TestSelfStatsCounts(t *testing.T) {
	c := NewCollector("vm", "disk")
	if s := c.SelfStats(); s.Observations != 0 || s.ObserveNs == nil {
		t.Fatalf("fresh self stats: %+v", s)
	}
	c.Enable()
	const cmds = 1024
	for i := 0; i < cmds; i++ {
		r := issueReq(i, uint64(i*8%(1<<20)), simclock.Time(i)*simclock.Microsecond)
		c.OnIssue(r)
		c.OnComplete(completeReq(r, simclock.Millisecond))
	}
	s := c.SelfStats()
	if s.VM != "vm" || s.Disk != "disk" {
		t.Errorf("identity: %q/%q", s.VM, s.Disk)
	}
	if want := int64(2 * cmds); s.Observations != want {
		t.Errorf("observations = %d, want %d (issue+complete)", s.Observations, want)
	}
	if want := int64(2 * cmds / 64); s.Sampled != want {
		t.Errorf("sampled = %d, want %d (1-in-64)", s.Sampled, want)
	}
	if s.ObserveNs.Total != s.Sampled {
		t.Errorf("observe histogram total %d != sampled %d", s.ObserveNs.Total, s.Sampled)
	}
	if mean := s.MeanObserveNanos(); mean <= 0 {
		t.Errorf("mean observe cost %v ns, want > 0", mean)
	}
	if s.Snapshots != 0 {
		t.Errorf("SelfStats must not count as a snapshot, got %d", s.Snapshots)
	}

	before := s.LastSnapshotUnixNano
	if c.Snapshot() == nil {
		t.Fatal("snapshot nil")
	}
	s = c.SelfStats()
	if s.Snapshots != 1 {
		t.Errorf("snapshots = %d after one Snapshot", s.Snapshots)
	}
	if s.LastSnapshotUnixNano <= before {
		t.Errorf("last snapshot time not advanced: %d -> %d", before, s.LastSnapshotUnixNano)
	}
}

// TestSelfStatsDisabledFree: a disabled collector's fast path must record
// nothing — the "free when off" claim extends to the self-telemetry.
func TestSelfStatsDisabledFree(t *testing.T) {
	c := NewCollector("vm", "disk")
	for i := 0; i < 100; i++ {
		r := issueReq(i, 0, 0)
		c.OnIssue(r)
		c.OnComplete(completeReq(r, simclock.Millisecond))
	}
	if s := c.SelfStats(); s.Observations != 0 || s.Sampled != 0 {
		t.Errorf("disabled collector self-observed: %+v", s)
	}
}

// TestSelfStatsSurvivesReset: Reset discards guest data, not the service's
// own cost history.
func TestSelfStatsSurvivesReset(t *testing.T) {
	c := NewCollector("vm", "disk")
	c.Enable()
	for i := 0; i < 128; i++ {
		c.OnIssue(issueReq(i, uint64(i*8), simclock.Time(i)*simclock.Microsecond))
	}
	before := c.SelfStats()
	c.Reset()
	after := c.SelfStats()
	if after.Observations != before.Observations || after.Sampled != before.Sampled {
		t.Errorf("Reset discarded self stats: %+v -> %+v", before, after)
	}
	if s := c.Snapshot(); s.Commands != 0 {
		t.Errorf("Reset left %d commands", s.Commands)
	}
}

// TestSelfStatsContention drives one collector from many goroutines and
// expects the stream-mutex contention counter to fire at least once.
func TestSelfStatsContention(t *testing.T) {
	c := NewCollector("vm", "disk")
	c.Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				c.OnIssue(issueReq(g*5000+i, uint64(i*8%(1<<20)), simclock.Time(i)*simclock.Microsecond))
			}
		}(g)
	}
	wg.Wait()
	s := c.SelfStats()
	if s.Observations != 8*5000 {
		t.Errorf("observations = %d, want %d", s.Observations, 8*5000)
	}
	// Contention is probabilistic but with 8 spinning goroutines on one
	// mutex it is effectively certain; log rather than fail on zero so a
	// single-core runner cannot flake this test.
	if s.Contended == 0 {
		t.Logf("no contention observed (single-core runner?)")
	} else {
		t.Logf("contended %d of %d observations", s.Contended, s.Observations)
	}
}
