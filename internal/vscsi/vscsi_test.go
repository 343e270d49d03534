package vscsi

import (
	"math"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
)

// delayBackend completes every command after a fixed virtual delay.
type delayBackend struct {
	eng   *simclock.Engine
	delay simclock.Time
}

func (b *delayBackend) Submit(r *Request, done func(scsi.Status, scsi.Sense)) {
	b.eng.After(b.delay, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
}

// recordingObserver keeps copies: the disk recycles the Request itself once
// the command is over.
type recordingObserver struct {
	issued, completed []*Request
}

func (o *recordingObserver) OnIssue(r *Request)    { c := *r; o.issued = append(o.issued, &c) }
func (o *recordingObserver) OnComplete(r *Request) { c := *r; o.completed = append(o.completed, &c) }

func newTestDisk(t *testing.T, delay simclock.Time, maxActive int) (*simclock.Engine, *Disk, *recordingObserver) {
	t.Helper()
	eng := simclock.NewEngine()
	d := NewDisk(eng, &delayBackend{eng, delay}, DiskConfig{
		VM: "vm1", Name: "scsi0:0", CapacitySectors: 1 << 20, MaxActive: maxActive,
	})
	obs := &recordingObserver{}
	d.AddObserver(obs)
	return eng, d, obs
}

func TestIssueCompleteLifecycle(t *testing.T) {
	eng, d, obs := newTestDisk(t, 5*simclock.Millisecond, 0)
	var got *Request
	r, err := d.Issue(scsi.Read(100, 8), func(r *Request) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if d.Inflight() != 1 {
		t.Errorf("Inflight = %d, want 1", d.Inflight())
	}
	if r.OutstandingAtIssue != 0 {
		t.Errorf("OutstandingAtIssue = %d, want 0", r.OutstandingAtIssue)
	}
	eng.Run()
	if got == nil {
		t.Fatal("completion callback never ran")
	}
	if got.Latency() != 5*simclock.Millisecond {
		t.Errorf("Latency = %v", got.Latency())
	}
	if got.Status != scsi.StatusGood {
		t.Errorf("Status = %v", got.Status)
	}
	if d.Inflight() != 0 || d.Issued() != 1 || d.Completed() != 1 || d.Errored() != 0 {
		t.Errorf("counters: inflight=%d issued=%d completed=%d errored=%d",
			d.Inflight(), d.Issued(), d.Completed(), d.Errored())
	}
	if len(obs.issued) != 1 || len(obs.completed) != 1 {
		t.Errorf("observer saw %d/%d events", len(obs.issued), len(obs.completed))
	}
}

func TestOutstandingAtIssueCountsOthers(t *testing.T) {
	eng, d, _ := newTestDisk(t, simclock.Millisecond, 0)
	var depths []int
	for i := 0; i < 4; i++ {
		r, err := d.Issue(scsi.Read(uint64(i*8), 8), nil)
		if err != nil {
			t.Fatal(err)
		}
		depths = append(depths, r.OutstandingAtIssue)
	}
	eng.Run()
	for i, want := range []int{0, 1, 2, 3} {
		if depths[i] != want {
			t.Errorf("depths = %v", depths)
			break
		}
	}
}

func TestLBAOutOfRangeChecksCondition(t *testing.T) {
	// Each extent runs past the disk, through either entry point; the last
	// one's LastLBA wraps below the capacity.
	extents := []struct {
		lba    uint64
		blocks uint32
	}{
		{1 << 20, 1}, {1<<20 - 1, 2}, {math.MaxUint64, 2},
	}
	entries := []struct {
		name  string
		issue func(d *Disk, cmd scsi.Command, done func(*Request)) error
	}{
		{"Issue", func(d *Disk, cmd scsi.Command, done func(*Request)) error {
			_, err := d.Issue(cmd, done)
			return err
		}},
		{"IssueBatch", func(d *Disk, cmd scsi.Command, done func(*Request)) error {
			_, err := d.IssueBatch([]scsi.Command{cmd}, done)
			return err
		}},
	}
	for _, e := range extents {
		for _, entry := range entries {
			eng, d, obs := newTestDisk(t, simclock.Millisecond, 0)
			cmd := scsi.Command{Op: scsi.OpRead16, LBA: e.lba, Blocks: e.blocks}
			var got Request
			if err := entry.issue(d, cmd, func(r *Request) { got = *r }); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			if got.Status != scsi.StatusCheckCondition || got.Sense != scsi.SenseLBAOutOfRange {
				t.Errorf("%s %v: got status=%v sense=%v", entry.name, cmd, got.Status, got.Sense)
			}
			if d.Errored() != 1 {
				t.Errorf("%s %v: Errored = %d", entry.name, cmd, d.Errored())
			}
			// Even a failed command must traverse the observer path.
			if len(obs.issued) != 1 || len(obs.completed) != 1 {
				t.Errorf("%s %v: observer missed the failed command", entry.name, cmd)
			}
		}
	}
}

func TestLastSectorAccepted(t *testing.T) {
	eng, d, _ := newTestDisk(t, simclock.Millisecond, 0)
	var got *Request
	d.Issue(scsi.Read(d.CapacitySectors()-8, 8), func(r *Request) { got = r })
	eng.Run()
	if got.Status != scsi.StatusGood {
		t.Errorf("read of final extent failed: %v %v", got.Status, got.Sense)
	}
}

func TestMaxActiveQueuesExcess(t *testing.T) {
	eng, d, _ := newTestDisk(t, simclock.Millisecond, 2)
	completions := make([]simclock.Time, 0, 4)
	for i := 0; i < 4; i++ {
		d.Issue(scsi.Read(uint64(i*8), 8), func(r *Request) {
			completions = append(completions, r.CompleteTime)
		})
	}
	if d.Inflight() != 4 {
		t.Errorf("Inflight = %d, want 4 (pending count as outstanding)", d.Inflight())
	}
	eng.Run()
	// First two complete at 1ms, the queued two at 2ms.
	want := []simclock.Time{1, 1, 2, 2}
	for i := range want {
		if completions[i] != want[i]*simclock.Millisecond {
			t.Fatalf("completions = %v", completions)
		}
	}
	// SubmitTime of the queued requests must trail IssueTime.
}

func TestQueuedRequestSubmitTime(t *testing.T) {
	eng, d, obs := newTestDisk(t, simclock.Millisecond, 1)
	d.Issue(scsi.Read(0, 8), nil)
	d.Issue(scsi.Read(8, 8), nil)
	eng.Run()
	second := obs.completed[1]
	if second.IssueTime != 0 || second.SubmitTime != simclock.Millisecond {
		t.Errorf("IssueTime=%v SubmitTime=%v", second.IssueTime, second.SubmitTime)
	}
	// Guest-observed latency includes queueing.
	if second.Latency() != 2*simclock.Millisecond {
		t.Errorf("Latency = %v, want 2ms", second.Latency())
	}
}

func TestNonIOCommandsSkipRangeCheck(t *testing.T) {
	eng, d, _ := newTestDisk(t, simclock.Millisecond, 0)
	var got *Request
	d.Issue(scsi.Command{Op: scsi.OpTestUnitReady}, func(r *Request) { got = r })
	eng.Run()
	if got.Status != scsi.StatusGood {
		t.Errorf("TEST UNIT READY failed: %v", got.Status)
	}
}

func TestCloseRejectsNewIO(t *testing.T) {
	_, d, _ := newTestDisk(t, simclock.Millisecond, 0)
	d.Close()
	if _, err := d.Issue(scsi.Read(0, 1), nil); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestRemoveObserver(t *testing.T) {
	eng, d, obs := newTestDisk(t, simclock.Millisecond, 0)
	d.RemoveObserver(obs)
	d.Issue(scsi.Read(0, 8), nil)
	eng.Run()
	if len(obs.issued) != 0 {
		t.Error("removed observer still notified")
	}
	d.RemoveObserver(obs) // removing twice is a no-op
}

func TestRequestIDsMonotonic(t *testing.T) {
	eng, d, obs := newTestDisk(t, simclock.Millisecond, 0)
	for i := 0; i < 5; i++ {
		d.Issue(scsi.Read(uint64(i), 1), nil)
	}
	eng.Run()
	for i, r := range obs.issued {
		if r.ID != uint64(i) {
			t.Fatalf("IDs not monotonic: %d at %d", r.ID, i)
		}
	}
}

func TestDoubleCompletionPanics(t *testing.T) {
	eng := simclock.NewEngine()
	var savedDone func(scsi.Status, scsi.Sense)
	backend := BackendFunc(func(r *Request, done func(scsi.Status, scsi.Sense)) {
		savedDone = done
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := NewDisk(eng, backend, DiskConfig{VM: "v", Name: "d", CapacitySectors: 100})
	d.Issue(scsi.Read(0, 1), nil)
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("double completion should panic")
		}
	}()
	savedDone(scsi.StatusGood, scsi.Sense{})
}

func TestNewDiskValidation(t *testing.T) {
	eng := simclock.NewEngine()
	for _, f := range []func(){
		func() { NewDisk(eng, nil, DiskConfig{CapacitySectors: 1}) },
		func() {
			NewDisk(eng, BackendFunc(func(*Request, func(scsi.Status, scsi.Sense)) {}), DiskConfig{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkIssueComplete(b *testing.B) {
	eng := simclock.NewEngine()
	backend := BackendFunc(func(r *Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := NewDisk(eng, backend, DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 30})
	cmd := scsi.Read(0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmd.LBA = uint64(i % (1 << 20))
		if _, err := d.Issue(cmd, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAbortInFlightCommand(t *testing.T) {
	eng, d, obs := newTestDisk(t, 10*simclock.Millisecond, 0)
	var got *Request
	r, _ := d.Issue(scsi.Read(0, 8), func(req *Request) { got = req })
	if !d.Abort(r) {
		t.Fatal("abort refused")
	}
	if got == nil || got.Sense.Key != scsi.SenseAbortedCommand || !got.aborted {
		t.Fatalf("aborted completion: %+v", got)
	}
	if d.Inflight() != 0 {
		t.Errorf("Inflight = %d", d.Inflight())
	}
	// The backend's late completion must not double-complete.
	eng.Run()
	if len(obs.completed) != 1 {
		t.Errorf("observer completions = %d, want 1", len(obs.completed))
	}
	if d.Abort(r) {
		t.Error("double abort should report false")
	}
}

func TestAbortPendingQueuedCommand(t *testing.T) {
	eng, d, _ := newTestDisk(t, 10*simclock.Millisecond, 1)
	d.Issue(scsi.Read(0, 8), nil) // occupies the single active slot
	var got *Request
	r, _ := d.Issue(scsi.Read(8, 8), func(req *Request) { got = req })
	if !d.Abort(r) {
		t.Fatal("abort of queued command refused")
	}
	if got == nil || got.Sense.Key != scsi.SenseAbortedCommand {
		t.Fatalf("queued abort: %+v", got)
	}
	eng.Run()
	// The first command must still complete normally and the queue drain
	// must not resubmit the aborted request.
	if d.Completed() != 2 || d.Errored() != 1 {
		t.Errorf("completed=%d errored=%d", d.Completed(), d.Errored())
	}
}

func TestAbortAfterCompletionRefused(t *testing.T) {
	eng, d, _ := newTestDisk(t, simclock.Millisecond, 0)
	r, _ := d.Issue(scsi.Read(0, 8), nil)
	eng.Run()
	if d.Abort(r) {
		t.Error("abort after completion should report false")
	}
}

// holdBackend keeps the completion of every command to LBA 0 until the test
// releases it, and completes everything else at once.
type holdBackend struct {
	held []func(scsi.Status, scsi.Sense)
}

func (b *holdBackend) Submit(r *Request, done func(scsi.Status, scsi.Sense)) {
	if r.Cmd.LBA == 0 {
		b.held = append(b.held, done)
		return
	}
	done(scsi.StatusGood, scsi.Sense{})
}

// TestAbortedInFlightRequestNotRecycledEarly: a command the guest aborted
// while the backend still works on it keeps its Request until the backend's
// late completion — the disk must not hand the object to another command in
// between, or that completion would land on the wrong command.
func TestAbortedInFlightRequestNotRecycledEarly(t *testing.T) {
	eng := simclock.NewEngine()
	back := &holdBackend{}
	d := NewDisk(eng, back, DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 20})
	obs := &recordingObserver{}
	d.AddObserver(obs)

	victim, _ := d.Issue(scsi.Read(0, 8), nil)
	id := victim.ID
	if !d.Abort(victim) {
		t.Fatal("abort refused")
	}
	for i := 1; i <= 1000; i++ {
		r, err := d.Issue(scsi.Read(uint64(i)*8, 8), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r == victim {
			t.Fatalf("command %d got the aborted request while its backend completion is outstanding", i)
		}
	}
	if victim.ID != id || !victim.aborted {
		t.Fatalf("aborted request was rewritten: ID %d aborted %v", victim.ID, victim.aborted)
	}
	completions := func() (n int) {
		for _, c := range obs.completed {
			if c.ID == id {
				n++
			}
		}
		return n
	}
	if n := completions(); n != 1 {
		t.Fatalf("aborted command completed %d times before its late completion, want 1", n)
	}
	back.held[0](scsi.StatusGood, scsi.Sense{})
	if n := completions(); n != 1 {
		t.Fatalf("aborted command completed %d times after its late completion, want 1", n)
	}
	if d.Completed() != 1001 || d.Errored() != 1 || d.Inflight() != 0 {
		t.Errorf("completed=%d errored=%d inflight=%d", d.Completed(), d.Errored(), d.Inflight())
	}
	// Only now is the object free: the 1000 commands in between shared one
	// Request, the victim is the second the disk ever allocated.
	if len(d.free) != 2 {
		t.Fatalf("free list holds %d requests, want 2", len(d.free))
	}
	if r, _ := d.Issue(scsi.Read(8, 8), nil); r != victim {
		t.Error("the late completion did not release the aborted request")
	}
}

// TestAbortedPendingRequestRecyclesAtOnce: a command aborted while it waits
// behind MaxActive never reached the backend, so nothing can complete it
// later and its Request is free as soon as the abort's callback returns.
func TestAbortedPendingRequestRecyclesAtOnce(t *testing.T) {
	eng, d, _ := newTestDisk(t, 10*simclock.Millisecond, 1)
	d.Issue(scsi.Read(0, 8), nil) // occupies the single active slot
	queued, _ := d.Issue(scsi.Read(8, 8), nil)
	if !d.Abort(queued) {
		t.Fatal("abort of queued command refused")
	}
	next, _ := d.Issue(scsi.Read(16, 8), nil)
	if next != queued {
		t.Fatal("aborted pending request was not reused by the next command")
	}
	if next.aborted || next.Cmd.LBA != 16 || next.ID != 2 {
		t.Fatalf("reused request not reset: %+v", next)
	}
	eng.Run()
	if d.Completed() != 3 || d.Errored() != 1 || d.Inflight() != 0 {
		t.Errorf("completed=%d errored=%d inflight=%d", d.Completed(), d.Errored(), d.Inflight())
	}
	if len(d.free) != 2 {
		t.Errorf("free list holds %d requests, want the 2 ever in flight at once", len(d.free))
	}
}

// TestPendingQueueStaysBounded: a MaxActive queue that never empties is
// consumed from a moving head; its buffer must not grow with the number of
// commands that passed through.
func TestPendingQueueStaysBounded(t *testing.T) {
	eng, d, _ := newTestDisk(t, simclock.Millisecond, 2)
	issued := 0
	var refill func(*Request)
	refill = func(*Request) {
		if issued < 10000 {
			issued++
			d.Issue(scsi.Read(uint64(issued%1000)*8, 8), refill)
		}
	}
	for i := 0; i < 8; i++ {
		refill(nil)
	}
	eng.Run()
	if d.Completed() != 10000 {
		t.Fatalf("completed %d of 10000", d.Completed())
	}
	// A completing Request is still its command's while refill runs, so the
	// disk owns one more than the 8 in flight.
	if cap(d.pending) > 16 || len(d.free) > 9 {
		t.Errorf("8 commands in flight left a pending buffer of %d and %d pooled requests",
			cap(d.pending), len(d.free))
	}
}
