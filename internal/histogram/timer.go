package histogram

import "time"

// Timer measures one interval and records its duration, in
// nanoseconds, into the Histogram that started it. The zero Timer is
// inert: Stop returns 0 and records nothing, so callers can thread a
// Timer through code paths where instrumentation may be disabled
// without branching at every site.
//
// Timers are values; starting one is a single time.Now() call and
// stopping one is time.Since plus a lock-free Insert, so the helper is
// safe on hot paths (pair it with sampling when even that is too
// much).
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer begins timing an interval against h. A nil receiver
// yields an inert Timer.
func (h *Histogram) StartTimer() Timer {
	if h == nil {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time since StartTimer into the histogram
// and returns it. Stopping an inert (zero) Timer is a no-op.
func (t Timer) Stop() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.start)
	t.h.Insert(int64(d))
	return d
}

// Running reports whether the timer will record on Stop.
func (t Timer) Running() bool { return t.h != nil }

// ObserveSince records time elapsed since start into h (in
// nanoseconds) and returns it. A nil histogram records nothing but
// still returns the elapsed time, so call sites can use the duration
// for event payloads regardless of whether the histogram is wired.
func (h *Histogram) ObserveSince(start time.Time) time.Duration {
	d := time.Since(start)
	if h != nil {
		h.Insert(int64(d))
	}
	return d
}

// ObserveDuration records an already-measured duration into h. A nil
// histogram records nothing.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h != nil {
		h.Insert(int64(d))
	}
}
