// Package simclock provides a deterministic discrete-event simulation
// engine with a virtual nanosecond clock.
//
// Every experiment scenario in this repository runs on an Engine: workload
// generators, filesystem models and storage device models schedule callbacks
// at virtual times, and the engine dispatches them in time order. Two runs
// with the same seeds produce bit-identical results, which is what makes the
// paper's figures reproducible.
package simclock

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. It is deliberately distinct from time.Time: simulated time has
// no epoch and never touches the wall clock.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a standard library duration to virtual time.
func Duration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Micros reports t in whole microseconds (the unit used by the paper's
// latency and inter-arrival histograms).
func (t Time) Micros() int64 { return int64(t) / int64(Microsecond) }

// Seconds reports t in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration, e.g. "1.5ms".
func (t Time) String() string { return time.Duration(t).String() }

// Event is a callback scheduled on the engine.
type Event func(now Time)

// scheduled is one pending event. Nodes are recycled through their
// engine's free list, so seq doubles as the node's generation: a Handle
// taken for one use of the node does not match the next.
type scheduled struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	fn    Event
	eng   *Engine
	index int // position in eng.queue; -1 once fired or cancelled
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	s   *scheduled
	seq uint64
}

// Cancel removes the event from the engine's queue. Cancelling an event
// that already fired (or was already cancelled) is a no-op, also after the
// engine has reused the event's node for a later one.
func (h Handle) Cancel() {
	if s := h.s; s != nil && s.seq == h.seq && s.index >= 0 {
		s.eng.removeAt(s.index)
	}
}

// before is the dispatch order: by time, FIFO among equal times.
func (s *scheduled) before(o *scheduled) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all components of a simulation run on the engine's
// goroutine via scheduled events.
type Engine struct {
	now        Time
	queue      []*scheduled // binary min-heap by (at, seq)
	free       []*scheduled // fired or cancelled nodes awaiting reuse
	seq        uint64
	dispatched uint64
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Dispatched reports the total number of events executed so far.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(at Time, fn Event) Handle {
	if at < e.now {
		panic(fmt.Sprintf("simclock: scheduling event at %v before now %v", at, e.now))
	}
	var s *scheduled
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = &scheduled{eng: e}
	}
	s.at, s.seq, s.fn = at, e.seq, fn
	e.seq++
	e.queue = append(e.queue, s)
	e.up(len(e.queue)-1, s)
	return Handle{s, s.seq}
}

// up places s in the heap, moving the hole at i towards the root while s
// sorts before the hole's parent.
func (e *Engine) up(i int, s *scheduled) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
	}
	q[i] = s
	s.index = i
}

// down places s in the heap, moving the hole at i towards the leaves while
// the hole's earlier child sorts before s.
func (e *Engine) down(i int, s *scheduled) {
	q := e.queue
	for {
		child := 2*i + 1
		if child >= len(q) {
			break
		}
		if r := child + 1; r < len(q) && q[r].before(q[child]) {
			child = r
		}
		if !q[child].before(s) {
			break
		}
		q[i] = q[child]
		q[i].index = i
		i = child
	}
	q[i] = s
	s.index = i
}

// removeAt takes the node at heap position i out of the queue and puts it
// on the free list (without its callback, so a fired closure can be
// collected).
func (e *Engine) removeAt(i int) {
	q := e.queue
	s := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if i < n {
		// The last node fills the hole; it may belong either way from it.
		if i > 0 && last.before(q[(i-1)/2]) {
			e.up(i, last)
		} else {
			e.down(i, last)
		}
	}
	s.fn, s.index = nil, -1
	e.free = append(e.free, s)
}

// After schedules fn to run d nanoseconds from now. Negative delays are
// clamped to zero.
func (e *Engine) After(d Time, fn Event) Handle {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	s := e.queue[0]
	at, fn := s.at, s.fn
	e.removeAt(0)
	e.now = at
	e.dispatched++
	fn(at)
	return true
}

// Run dispatches events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NewRand returns a deterministic pseudo-random source for a simulation
// component. Components should derive their RNGs from distinct seeds so that
// adding one component does not perturb another's stream.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Ticker invokes fn every interval until the returned stop function is
// called or the engine drains. The first tick fires one interval from now.
type Ticker struct {
	stop bool
}

// Stop prevents future ticks.
func (t *Ticker) Stop() { t.stop = true }

// NewTicker schedules fn(now) every interval on e.
func NewTicker(e *Engine, interval Time, fn Event) *Ticker {
	if interval <= 0 {
		panic("simclock: ticker interval must be positive")
	}
	t := &Ticker{}
	var tick Event
	tick = func(now Time) {
		if t.stop {
			return
		}
		fn(now)
		if !t.stop {
			e.After(interval, tick)
		}
	}
	e.After(interval, tick)
	return t
}
