package core

// Lifecycle and fast-path concurrency tests. Run with -race: everything a
// command, a snapshot or a lifecycle call touches is guarded by the
// collector's one mutex, and these are the tests that would report a field
// left outside it.

import (
	"sync"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// liveSet reads the published histogram set under the collector's lock.
func (c *Collector) liveSet() *histSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h
}

func issueReq(id int, lba uint64, at simclock.Time) *vscsi.Request {
	return &vscsi.Request{
		ID:        uint64(id),
		Cmd:       scsi.Read(lba, 8),
		IssueTime: at,
	}
}

func completeReq(r *vscsi.Request, lat simclock.Time) *vscsi.Request {
	r.CompleteTime = r.IssueTime + lat
	r.Status = scsi.StatusGood
	return r
}

// TestCollectorConcurrentStress hammers one collector from N issuing
// goroutines while one goroutine polls snapshots and another toggles
// enable/disable/reset — the mix the acceptance criteria name.
func TestCollectorConcurrentStress(t *testing.T) {
	const (
		issuers = 8
		perG    = 2000
	)
	c := NewCollector("vm", "disk")
	c.Enable()

	var issuerWG, monitorWG sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < issuers; g++ {
		issuerWG.Add(1)
		go func(g int) {
			defer issuerWG.Done()
			for i := 0; i < perG; i++ {
				r := issueReq(g*perG+i, uint64((g*perG+i)*977%(1<<20)), simclock.Time(i)*simclock.Microsecond)
				c.OnIssue(r)
				c.OnComplete(completeReq(r, 500*simclock.Microsecond))
			}
		}(g)
	}

	monitorWG.Add(1)
	go func() { // snapshot poller
		defer monitorWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := c.Snapshot(); s != nil && s.Commands < 0 {
				t.Error("torn snapshot: negative command count")
				return
			}
		}
	}()
	monitorWG.Add(1)
	go func() { // lifecycle toggler
		defer monitorWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				c.Disable()
			case 1:
				c.Enable()
			case 2:
				c.Reset()
			default:
				c.Enable()
			}
		}
	}()

	issuerWG.Wait()
	close(stop)
	monitorWG.Wait()

	c.Enable()
	s := c.Snapshot()
	if s == nil {
		t.Fatal("enabled collector returned nil snapshot")
	}
	if s.Commands < 0 || s.Commands > issuers*perG {
		t.Errorf("command count %d outside [0, %d]", s.Commands, issuers*perG)
	}
	// Whatever survived the resets must be internally consistent.
	if s.Commands != s.NumReads+s.NumWrites {
		t.Errorf("commands=%d != reads+writes=%d", s.Commands, s.NumReads+s.NumWrites)
	}
}

// TestEnableConcurrentIdempotent is the regression test for the
// check-then-act race in Enable: when many goroutines race the first
// Enable, exactly one histSet may win, and later Enables must never
// replace it (that would silently drop accumulated samples).
func TestEnableConcurrentIdempotent(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		c := NewCollector("vm", "disk")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Enable()
			}()
		}
		close(start)
		wg.Wait()

		won := c.liveSet()
		if won == nil {
			t.Fatal("no histSet after concurrent Enable")
		}
		r := issueReq(1, 0, 0)
		c.OnIssue(r)
		c.Enable() // must not reallocate
		if c.liveSet() != won {
			t.Fatal("redundant Enable replaced the live histSet")
		}
		if s := c.Snapshot(); s.Commands != 1 {
			t.Fatalf("sample lost across redundant Enable: commands=%d", s.Commands)
		}
	}
}

// TestResetSwapsAtomically: Reset, Enable and BreakStream take the lock
// every observation holds, so a snapshot taken at any moment of a storm of
// them sees the complete old set or the fresh one, never a half-cleared
// one — the issue side still agrees with itself — and after the dust
// settles a Reset leaves exactly the samples issued after it.
func TestResetSwapsAtomically(t *testing.T) {
	c := NewCollector("vm", "disk")
	c.Enable()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // issuer
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			r := issueReq(i, uint64(i*8%(1<<20)), simclock.Time(i)*simclock.Microsecond)
			if i%7 == 0 {
				c.OnIssueBatch([]*vscsi.Request{r, issueReq(i, 0, r.IssueTime)})
			} else {
				c.OnIssue(r)
			}
			c.OnComplete(completeReq(r, simclock.Millisecond))
		}
	}()
	for i := 0; i < 600 && !t.Failed(); i++ {
		switch i % 3 {
		case 0:
			c.Reset()
		case 1:
			c.Enable()
		default:
			c.BreakStream()
		}
		s := c.Snapshot()
		if s == nil {
			t.Error("Reset made an enabled collector's snapshot nil")
			break
		}
		checkDerivedLaws(t, s)
		// A break costs the next command its three stream samples, so
		// the cut law loosens to: all three agree and none outruns the
		// commands.
		seek, wseek, inter := s.Histogram(MetricSeekDistance, All).Total, s.Histogram(MetricSeekWindowed, All).Total, s.Histogram(MetricInterarrival, All).Total
		if s.Histogram(MetricOutstanding, All).Total != s.Commands || seek != wseek || seek != inter || seek > max(s.Commands-1, 0) {
			t.Errorf("half-cleared set: %d commands, %d outstanding, %d/%d/%d stream samples",
				s.Commands, s.Histogram(MetricOutstanding, All).Total, seek, wseek, inter)
		}
	}
	close(done)
	wg.Wait()

	// Deterministic tail: with no concurrent writers, Reset leaves a
	// completely clean slate (stream state included).
	c.Reset()
	r := issueReq(1, 4096, simclock.Second)
	c.OnIssue(r)
	s := c.Snapshot()
	if s.Commands != 1 {
		t.Errorf("post-reset commands = %d, want 1", s.Commands)
	}
	// First command after reset: no predecessor, so no seek or
	// inter-arrival samples may leak from before the reset.
	if tot := s.Histogram(MetricSeekDistance, All).Total; tot != 0 {
		t.Errorf("seek histogram kept %d samples across Reset", tot)
	}
	if tot := s.Histogram(MetricInterarrival, All).Total; tot != 0 {
		t.Errorf("interarrival histogram kept %d samples across Reset", tot)
	}
}

// TestResetNeverEnabled stays a no-op.
func TestResetNeverEnabled(t *testing.T) {
	c := NewCollector("vm", "disk")
	c.Reset()
	if s := c.Snapshot(); s != nil {
		t.Fatalf("Reset allocated state for a never-enabled collector: %+v", s)
	}
}

// checkDerivedLaws asserts what Snapshot derives instead of counting: in
// every family class all is reads + writes, bin for bin and in Sum and
// Total, and the counters are the I/O length histograms' totals and sums.
func checkDerivedLaws(t *testing.T, s *Snapshot) {
	t.Helper()
	for _, m := range Metrics() {
		if m == MetricSeekWindowed {
			continue
		}
		all, r, w := s.Histogram(m, All), s.Histogram(m, Reads), s.Histogram(m, Writes)
		if all.Total != r.Total+w.Total || all.Sum != r.Sum+w.Sum {
			t.Errorf("%s: all total/sum %d/%d != reads+writes %d/%d", m, all.Total, all.Sum, r.Total+w.Total, r.Sum+w.Sum)
		}
		for i := range all.Counts {
			if all.Counts[i] != r.Counts[i]+w.Counts[i] {
				t.Errorf("%s bin %d: all %d != reads %d + writes %d", m, i, all.Counts[i], r.Counts[i], w.Counts[i])
			}
		}
	}
	if s.Commands != s.NumReads+s.NumWrites || s.Commands != s.Histogram(MetricIOLength, All).Total {
		t.Errorf("commands %d, reads+writes %d, ioLength total %d", s.Commands, s.NumReads+s.NumWrites, s.Histogram(MetricIOLength, All).Total)
	}
	if s.NumReads != s.Histogram(MetricIOLength, Reads).Total || s.NumWrites != s.Histogram(MetricIOLength, Writes).Total {
		t.Errorf("reads/writes %d/%d != ioLength totals %d/%d", s.NumReads, s.NumWrites, s.Histogram(MetricIOLength, Reads).Total, s.Histogram(MetricIOLength, Writes).Total)
	}
	if s.ReadBytes != s.Histogram(MetricIOLength, Reads).Sum || s.WriteBytes != s.Histogram(MetricIOLength, Writes).Sum {
		t.Errorf("bytes %d/%d != ioLength sums %d/%d", s.ReadBytes, s.WriteBytes, s.Histogram(MetricIOLength, Reads).Sum, s.Histogram(MetricIOLength, Writes).Sum)
	}
}

// checkConsistentCut asserts that a snapshot cut the stream between two
// commands: with one Enable and no Reset or BreakStream, every command in
// it brought a length and an outstanding sample, and every command but the
// first a seek, a windowed seek and an inter-arrival sample.
func checkConsistentCut(t *testing.T, s *Snapshot) {
	t.Helper()
	if oio, length := s.Histogram(MetricOutstanding, All).Total, s.Histogram(MetricIOLength, All).Total; oio != s.Commands || length != s.Commands {
		t.Errorf("torn snapshot: %d commands, %d lengths, %d outstanding samples", s.Commands, length, oio)
	}
	want := max(s.Commands-1, 0)
	if seek, wseek, inter := s.Histogram(MetricSeekDistance, All).Total, s.Histogram(MetricSeekWindowed, All).Total, s.Histogram(MetricInterarrival, All).Total; seek != want || wseek != want || inter != want {
		t.Errorf("torn snapshot: %d commands, %d seeks, %d windowed seeks, %d inter-arrivals, want %d of each",
			s.Commands, seek, wseek, inter, want)
	}
}

// TestSnapshotDerivedLawsConcurrent takes snapshots while N goroutines
// issue reads and writes, singly and in bursts, into one shared collector.
// When class all and the counters were maintained separately the derived
// laws held only at quiescence; derived from the copy a snapshot takes,
// they hold in every snapshot. And because that copy is taken under the
// lock every observation holds, so does the consistent cut.
func TestSnapshotDerivedLawsConcurrent(t *testing.T) {
	const (
		issuers = 6
		perG    = 3000
	)
	c := NewCollector("vm", "disk")
	c.Enable()
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var burst []*vscsi.Request
			for i := 0; i < perG; i++ {
				r := issueReq(g*perG+i, uint64((g*perG+i)*977%(1<<20)), simclock.Time(i)*simclock.Microsecond)
				if (i+g)%3 == 0 {
					r.Cmd = scsi.Write(r.Cmd.LBA, uint32(8+i%64))
				}
				r.OutstandingAtIssue = i % 40
				if burst = append(burst, r); len(burst) < 1+i%5 {
					continue
				}
				if i%2 == 0 {
					c.OnIssueBatch(burst)
				} else {
					for _, b := range burst {
						c.OnIssue(b)
					}
				}
				for _, b := range burst {
					c.OnComplete(completeReq(b, simclock.Time(100+i%900)*simclock.Microsecond))
				}
				burst = burst[:0]
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps, running := 0, true; running && !t.Failed(); snaps++ {
		select {
		case <-done:
			running = false
		default:
		}
		s := c.Snapshot()
		checkDerivedLaws(t, s)
		checkConsistentCut(t, s)
	}
	<-done
	if s := c.Snapshot(); s.NumReads == 0 || s.NumWrites == 0 {
		t.Fatalf("stream was not mixed: %d reads, %d writes", s.NumReads, s.NumWrites)
	}
}
