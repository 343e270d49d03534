package core

import (
	"math/rand"
	"sync"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// randomBurst builds a burst of block-I/O requests (with the occasional
// non-I/O command mixed in) with coherent issue times and outstanding
// counts.
func randomBurst(rng *rand.Rand, now simclock.Time, n int) []*vscsi.Request {
	rs := make([]*vscsi.Request, n)
	for i := range rs {
		var cmd scsi.Command
		switch rng.Intn(10) {
		case 0:
			cmd = scsi.Command{Op: scsi.OpTestUnitReady}
		case 1, 2, 3:
			cmd = scsi.Write(uint64(rng.Intn(1<<20))*8, uint32(8*(1+rng.Intn(4))))
		default:
			cmd = scsi.Read(uint64(rng.Intn(1<<20))*8, uint32(8*(1+rng.Intn(4))))
		}
		rs[i] = &vscsi.Request{
			ID: uint64(i), VM: "vm", Disk: "d", Cmd: cmd,
			IssueTime:          now,
			OutstandingAtIssue: i,
		}
	}
	return rs
}

// TestOnIssueBatchMatchesSequential pins the batch observation path to the
// per-command path: feeding the same bursts through OnIssueBatch and through
// sequential OnIssue calls must produce bin-identical snapshots across every
// metric and class — the proof the amortization is behavior-preserving.
func TestOnIssueBatchMatchesSequential(t *testing.T) {
	seq := NewCollector("vm", "d")
	bat := NewCollector("vm", "d")
	seq.Enable()
	bat.Enable()
	rngA := rand.New(rand.NewSource(7))
	now := simclock.Time(0)
	for burst := 0; burst < 50; burst++ {
		n := 1 + rngA.Intn(100)
		rs := randomBurst(rngA, now, n)
		for _, r := range rs {
			seq.OnIssue(r)
		}
		bat.OnIssueBatch(rs)
		now += simclock.Time(rngA.Intn(5000)) * simclock.Microsecond
	}
	ss, bs := seq.Snapshot(), bat.Snapshot()
	if ss.Commands != bs.Commands || ss.NumReads != bs.NumReads ||
		ss.NumWrites != bs.NumWrites || ss.ReadBytes != bs.ReadBytes ||
		ss.WriteBytes != bs.WriteBytes {
		t.Fatalf("counters differ: seq %+v batch %+v", ss, bs)
	}
	for _, m := range Metrics() {
		for _, cl := range []Class{All, Reads, Writes} {
			hs, hb := ss.Histogram(m, cl), bs.Histogram(m, cl)
			if hs.Total != hb.Total || hs.Sum != hb.Sum {
				t.Errorf("%s/%s: total/sum differ: %d/%d vs %d/%d",
					m, cl, hs.Total, hs.Sum, hb.Total, hb.Sum)
			}
			for i := range hs.Counts {
				if hs.Counts[i] != hb.Counts[i] {
					t.Errorf("%s/%s bin %d: seq %d, batch %d",
						m, cl, i, hs.Counts[i], hb.Counts[i])
				}
			}
			if hs.Min != hb.Min || hs.Max != hb.Max {
				t.Errorf("%s/%s: min/max differ: %d/%d vs %d/%d",
					m, cl, hs.Min, hs.Max, hb.Min, hb.Max)
			}
		}
	}
}

// TestOnIssueBatchDisabledAndUnpublished covers the guard path: a
// never-enabled collector ignores bursts and allocates no set for them.
func TestOnIssueBatchDisabledAndUnpublished(t *testing.T) {
	c := NewCollector("vm", "d")
	rs := randomBurst(rand.New(rand.NewSource(1)), 0, 8)
	c.OnIssueBatch(rs) // disabled: no-op
	if c.Snapshot() != nil {
		t.Fatal("disabled collector recorded a burst")
	}
	if got := c.SelfStats().Observations; got != 0 {
		t.Fatalf("disabled collector counted %d observations", got)
	}
}

// TestOnIssueBatchAllocatesNothing: samples are inserted where they are
// computed, so a burst of any size costs no heap object — 3×64+1 is past
// the size at which the path used to spill its samples to the heap.
func TestOnIssueBatchAllocatesNothing(t *testing.T) {
	c := NewCollector("vm", "d")
	c.Enable()
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 64, 3*64 + 1} {
		rs := randomBurst(rng, 0, n)
		if avg := testing.AllocsPerRun(100, func() { c.OnIssueBatch(rs) }); avg != 0 {
			t.Errorf("OnIssueBatch of %d commands allocates %v objects, want 0", n, avg)
		}
	}
}

// TestOnIssueBatchConcurrent hammers one collector with concurrent bursts,
// single-command issues and snapshots under -race, and then checks no
// sample was lost: the commands counter must equal the ioLength totals.
func TestOnIssueBatchConcurrent(t *testing.T) {
	c := NewCollector("vm", "d")
	c.Enable()
	const issuers = 4
	const bursts = 200
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			now := simclock.Time(0)
			for i := 0; i < bursts; i++ {
				rs := randomBurst(rng, now, 1+rng.Intn(32))
				if rng.Intn(2) == 0 {
					c.OnIssueBatch(rs)
				} else {
					for _, r := range rs {
						c.OnIssue(r)
					}
				}
				now += simclock.Millisecond
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if s := c.Snapshot(); s != nil {
				h := s.Histogram(MetricIOLength, All)
				var sum int64
				for _, n := range h.Counts {
					sum += n
				}
				if h.Total != sum {
					t.Errorf("snapshot %d: ioLength total %d != bin sum %d", i, h.Total, sum)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	s := c.Snapshot()
	if s.Commands == 0 {
		t.Fatal("no commands recorded")
	}
	if got := s.Histogram(MetricIOLength, All).Total; got != s.Commands {
		t.Fatalf("ioLength total %d != commands %d", got, s.Commands)
	}
}
