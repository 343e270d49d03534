package simclock

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func(Time) { got = append(got, 3) })
	e.At(10, func(Time) { got = append(got, 1) })
	e.At(20, func(Time) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestEngineAfterRelativeToNow(t *testing.T) {
	e := NewEngine()
	var fired Time
	e.At(100, func(now Time) {
		e.After(50, func(now Time) { fired = now })
	})
	e.Run()
	if fired != 150 {
		t.Errorf("After fired at %v, want 150", fired)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling before now")
		}
	}()
	e.At(50, func(Time) {})
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func(Time) {
		e.After(-5, func(now Time) {
			fired = true
			if now != 10 {
				t.Errorf("clamped event at %v, want 10", now)
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("clamped event never fired")
	}
}

func TestCancelPreventsDispatch(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10, func(Time) { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Dispatched() != 0 {
		t.Errorf("Dispatched = %d, want 0", e.Dispatched())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine()
	h := e.At(1, func(Time) {})
	e.Run()
	h.Cancel() // must not panic
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20 only", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now() = %v, want deadline 25", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("remaining events lost: fired %v", fired)
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Errorf("Now() = %v, want 1000", e.Now())
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	tk := NewTicker(e, 10, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			// Stop from inside the callback.
			return
		}
	})
	e.RunUntil(35)
	tk.Stop()
	e.Run()
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, 10, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 2 {
		t.Errorf("ticker fired %d times after Stop, want 2", n)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero interval")
		}
	}()
	NewTicker(NewEngine(), 0, func(Time) {})
}

func TestTimeMicros(t *testing.T) {
	cases := []struct {
		t    Time
		want int64
	}{
		{0, 0},
		{999, 0},
		{1000, 1},
		{1_500_000, 1500},
		{Second, 1_000_000},
	}
	for _, c := range cases {
		if got := c.t.Micros(); got != c.want {
			t.Errorf("(%d).Micros() = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestDurationConversion(t *testing.T) {
	if Duration(3*time.Millisecond) != 3*Millisecond {
		t.Error("Duration(3ms) mismatch")
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Errorf("Seconds() = %v, want 0.0025", got)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the final clock equals the max offset.
func TestEngineDispatchOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var fired []Time
		var max Time
		for _, off := range offsets {
			at := Time(off)
			if at > max {
				max = at
			}
			e.At(at, func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	fn := func(Time) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}

// oracleEngine is the engine this package had before events were pooled: a
// container/heap queue of freshly allocated nodes, cancellation by marking.
// It is the reference for the dispatch order.
type oracleEngine struct {
	now        Time
	queue      oracleQueue
	seq        uint64
	dispatched uint64
}

type oracleEvent struct {
	at   Time
	seq  uint64
	fn   Event
	dead bool
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(*oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return s
}

func (e *oracleEngine) At(at Time, fn Event) *oracleEvent {
	s := &oracleEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, s)
	return s
}

func (e *oracleEngine) Step() bool {
	for len(e.queue) > 0 {
		s := heap.Pop(&e.queue).(*oracleEvent)
		if s.dead {
			continue
		}
		e.now = s.at
		e.dispatched++
		s.fn(e.now)
		return true
	}
	return false
}

func (e *oracleEngine) RunUntil(deadline Time) {
	for {
		for len(e.queue) > 0 && e.queue[0].dead {
			heap.Pop(&e.queue)
		}
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// TestEngineMatchesHeapOracle runs random programs of At, After, Cancel,
// Step and RunUntil against the pooled engine and the container/heap
// oracle and requires the same events at the same instants in the same
// order. Events schedule follow-ups from inside their dispatch, and Cancel
// is called on any handle ever issued — live, fired, cancelled, or fired
// with its node since reused.
func TestEngineMatchesHeapOracle(t *testing.T) {
	type firing struct {
		id int
		at Time
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, o := NewEngine(), &oracleEngine{}
		var got, want []firing
		var handles []Handle
		var oracles []*oracleEvent
		peak := 0
		// schedule registers event id on both engines at the same time.
		var schedule func(at Time, id int)
		schedule = func(at Time, id int) {
			child := id*7 + 1
			delay := Time(id % 13)
			handles = append(handles, e.At(at, func(now Time) {
				got = append(got, firing{id, now})
				if id%3 == 0 && id < 1<<20 {
					handles = append(handles, e.After(delay, func(now Time) { got = append(got, firing{child, now}) }))
				}
			}))
			oracles = append(oracles, o.At(at, func(now Time) {
				want = append(want, firing{id, now})
				if id%3 == 0 && id < 1<<20 {
					oracles = append(oracles, o.At(o.now+delay, func(now Time) { want = append(want, firing{child, now}) }))
				}
			}))
		}
		for step, id := 0, 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				id++
				schedule(e.Now()+Time(rng.Intn(50)), id)
			case r < 6 && len(handles) > 0:
				i := rng.Intn(len(handles))
				handles[i].Cancel()
				oracles[i].dead = true
			case r < 9:
				if a, b := e.Step(), o.Step(); a != b {
					t.Fatalf("seed %d step %d: Step = %v, oracle %v", seed, step, a, b)
				}
			default:
				d := e.Now() + Time(rng.Intn(30))
				e.RunUntil(d)
				o.RunUntil(d)
			}
			if e.Now() != o.now || e.Dispatched() != o.dispatched {
				t.Fatalf("seed %d step %d: now %v dispatched %d, oracle %v %d",
					seed, step, e.Now(), e.Dispatched(), o.now, o.dispatched)
			}
			if len(handles) != len(oracles) {
				t.Fatalf("seed %d step %d: %d handles, oracle %d", seed, step, len(handles), len(oracles))
			}
			if e.Pending() > peak {
				peak = e.Pending()
			}
		}
		e.Run()
		for o.Step() {
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, oracle %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
		// Every node ever allocated is now on the free list, and there are
		// no more of them than events were ever pending at once (an event
		// scheduled from inside a dispatch reuses the node just fired).
		if len(e.free) > peak {
			t.Fatalf("seed %d: %d pooled nodes for a peak of %d pending events", seed, len(e.free), peak)
		}
	}
}

// TestCancelAfterReuseSparesNewEvent pins the generation check: a handle
// whose event fired, and whose node now carries a later event, cancels
// nothing.
func TestCancelAfterReuseSparesNewEvent(t *testing.T) {
	e := NewEngine()
	old := e.After(1, func(Time) {})
	e.Step()
	fired := false
	reissued := e.After(1, func(Time) { fired = true })
	if reissued.s != old.s {
		t.Fatal("the fired node was not reused; the test does not cover what it claims")
	}
	old.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("stale Cancel removed the reissued event: Pending = %d", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale Cancel killed the event that reused the node")
	}
	reissued.Cancel() // fired, not reused: still a no-op
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d nodes, want the one node ever allocated", len(e.free))
	}
}

// TestScheduleDispatchAllocatesNothing: with the pool warm, scheduling an
// event and dispatching one costs no heap object.
func TestScheduleDispatchAllocatesNothing(t *testing.T) {
	e := NewEngine()
	fn := func(Time) {}
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(64, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("After + Step allocates %v objects in steady state, want 0", avg)
	}
}
