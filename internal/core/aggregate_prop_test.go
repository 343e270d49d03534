package core

import (
	"math/rand"
	"reflect"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// randRequests generates n random requests with a private time base:
// a mix of reads, writes and non-I/O commands, random seeks, queue
// depths, latencies, gaps and an occasional error status.
func randRequests(rng *rand.Rand, n int) []*vscsi.Request {
	out := make([]*vscsi.Request, 0, n)
	lba := uint64(rng.Intn(1 << 20))
	t := simclock.Time(rng.Intn(1000)) * simclock.Millisecond
	for i := 0; i < n; i++ {
		var cmd scsi.Command
		switch rng.Intn(10) {
		case 0:
			cmd = scsi.Command{Op: scsi.OpInquiry} // invisible to the histograms
		case 1, 2, 3, 4:
			cmd = scsi.Write(lba, uint32(1+rng.Intn(64)))
		default:
			cmd = scsi.Read(lba, uint32(1+rng.Intn(64)))
		}
		r := &vscsi.Request{
			Cmd:                cmd,
			IssueTime:          t,
			CompleteTime:       t + simclock.Time(100+rng.Intn(20000))*simclock.Microsecond,
			OutstandingAtIssue: rng.Intn(64),
			Status:             scsi.StatusGood,
		}
		if rng.Intn(23) == 0 {
			r.Status = scsi.StatusCheckCondition
		}
		out = append(out, r)
		// Random walk over the disk: mostly near-sequential, sometimes far.
		lba = uint64(int64(lba) + int64(rng.Intn(1<<14)) - 1<<13)
		if rng.Intn(8) == 0 {
			lba = uint64(rng.Intn(1 << 20))
		}
		t += simclock.Time(1+rng.Intn(5000)) * simclock.Microsecond
	}
	return out
}

func drive(col *Collector, reqs []*vscsi.Request) {
	for _, r := range reqs {
		col.OnIssue(r)
		col.OnComplete(r)
	}
}

// TestAggregatePropertyMatchesConcatenatedStream is the merge correctness
// property the fleet aggregator relies on: feeding K per-host collectors
// their own command segments and merging the snapshots with Aggregate
// yields exactly — bin for bin, across all six metrics and all three
// classes — what one collector sees when fed the concatenated stream with
// BreakStream marking each segment boundary (the disk changing hands, as
// in a vMotion).
func TestAggregatePropertyMatchesConcatenatedStream(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*7919 + 1))
		numSegs := 2 + rng.Intn(4)
		combined := NewCollector("combined", "scsi0:0")
		combined.Enable()
		var perHost []*Snapshot
		for seg := 0; seg < numSegs; seg++ {
			n := rng.Intn(400)
			if seg == 1 && trial%3 == 0 {
				n = 0 // an idle host must not perturb the merge
			}
			reqs := randRequests(rng, n)
			host := NewCollector("combined", "scsi0:0")
			host.Enable()
			drive(host, reqs)
			perHost = append(perHost, host.Snapshot())
			if seg > 0 {
				combined.BreakStream()
			}
			drive(combined, reqs)
		}
		got := Aggregate("host", "*", combined.Snapshot())
		want := Aggregate("host", "*", perHost...)
		if !reflect.DeepEqual(got, want) {
			reportSnapshotDiff(t, trial, got, want)
		}
	}
}

// reportSnapshotDiff narrows a DeepEqual failure down to the first
// counter or histogram that diverged.
func reportSnapshotDiff(t *testing.T, trial int, got, want *Snapshot) {
	t.Helper()
	if got.Commands != want.Commands || got.NumReads != want.NumReads ||
		got.NumWrites != want.NumWrites || got.ReadBytes != want.ReadBytes ||
		got.WriteBytes != want.WriteBytes || got.Errors != want.Errors {
		t.Errorf("trial %d: counters diverged: got %+v", trial, got)
		return
	}
	for _, m := range Metrics() {
		for _, cl := range []Class{All, Reads, Writes} {
			hg, hw := got.Histogram(m, cl), want.Histogram(m, cl)
			if !reflect.DeepEqual(hg, hw) {
				t.Errorf("trial %d: %s/%s diverged:\n got:  total=%d sum=%d counts=%v\n want: total=%d sum=%d counts=%v",
					trial, m, cl, hg.Total, hg.Sum, hg.Counts, hw.Total, hw.Sum, hw.Counts)
				return
			}
		}
	}
	t.Errorf("trial %d: snapshots diverged outside counters and histograms", trial)
}

// TestBreakStreamIsRequiredForTheProperty documents why BreakStream
// exists: without it the concatenated stream manufactures seek and
// interarrival samples across the segment boundary that no per-host
// collector ever saw, so the merge cannot be exact.
func TestBreakStreamIsRequiredForTheProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	segA := randRequests(rng, 200)
	segB := randRequests(rng, 200)

	hostA := NewCollector("vm", "d")
	hostA.Enable()
	drive(hostA, segA)
	hostB := NewCollector("vm", "d")
	hostB.Enable()
	drive(hostB, segB)
	merged := Aggregate("vm", "d", hostA.Snapshot(), hostB.Snapshot())

	noBreak := NewCollector("vm", "d")
	noBreak.Enable()
	drive(noBreak, segA)
	drive(noBreak, segB)
	plain := noBreak.Snapshot()

	// The concatenated collector records exactly one extra seek sample —
	// the phantom hop from segA's last block to segB's first.
	if extra := plain.Histogram(MetricSeekDistance, All).Total - merged.Histogram(MetricSeekDistance, All).Total; extra != 1 {
		t.Errorf("expected exactly 1 phantom boundary seek sample, got %d", extra)
	}

	// And with BreakStream the phantom disappears.
	withBreak := NewCollector("vm", "d")
	withBreak.Enable()
	drive(withBreak, segA)
	withBreak.BreakStream()
	drive(withBreak, segB)
	if got := withBreak.Snapshot().Histogram(MetricSeekDistance, All).Total; got != merged.Histogram(MetricSeekDistance, All).Total {
		t.Errorf("BreakStream left %d seek samples, want %d", got, merged.Histogram(MetricSeekDistance, All).Total)
	}
}

// TestBreakStreamKeepsHistograms pins BreakStream's contract: it clears
// only the cross-command correlation state, never accumulated data.
func TestBreakStreamKeepsHistograms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := NewCollector("vm", "d")
	col.Enable()
	drive(col, randRequests(rng, 300))
	before := col.Snapshot()
	col.BreakStream()
	after := col.Snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Error("BreakStream changed the snapshot")
	}
	// Safe on a never-enabled collector too.
	NewCollector("vm", "d").BreakStream()
}
