package core

import (
	"vscsistats/internal/histogram"
	"vscsistats/internal/simclock"
)

// IntervalRecorder periodically snapshots a collector and keeps the
// per-interval deltas, producing the paper's "histogram over time" views
// (Figure 4(d) and Figure 6(c) use 6-second intervals).
type IntervalRecorder struct {
	col      *Collector
	interval simclock.Time
	last     *Snapshot
	eng      *simclock.Engine
	lastAt   simclock.Time // when last was captured
	ticker   *simclock.Ticker
	// Intervals holds one delta snapshot per elapsed interval.
	Intervals []*Snapshot
}

// NewIntervalRecorder starts recording col every interval on eng. The
// collector must already be enabled (it must have data structures).
func NewIntervalRecorder(eng *simclock.Engine, col *Collector, interval simclock.Time) *IntervalRecorder {
	r := &IntervalRecorder{col: col, interval: interval, last: col.Snapshot(), eng: eng}
	if r.last == nil {
		panic("core: IntervalRecorder needs an enabled collector")
	}
	r.ticker = simclock.NewTicker(eng, interval, func(now simclock.Time) {
		cur := r.col.Snapshot()
		r.Intervals, r.last, r.lastAt = append(r.Intervals, IntervalSince(r.last, cur)), cur, now
	})
	return r
}

// IntervalSince is the one rule every interval keeper (IntervalRecorder,
// telemetry.Streamer, the fleet aggregator's History) turns two consecutive
// cumulative snapshots of a disk into one interval with: cur.Sub(prev), or
// cur itself if prev is nil (the first point) or wentBack(prev, cur) (a Reset
// or a restart in between). Sub stays the exact signed delta: the fleet's
// wire deltas need it to wrap.
func IntervalSince(prev, cur *Snapshot) *Snapshot {
	if prev == nil || wentBack(prev, cur) {
		return cur
	}
	return cur.Sub(prev)
}

// wentBack reports whether any counter or bin of cur is below prev's — the
// reset rule of IntervalSince and AddInterval.
func wentBack(prev, cur *Snapshot) bool {
	// A delta below 0 sets the sign bit of neg.
	neg := (cur.Commands - prev.Commands) | (cur.NumReads - prev.NumReads) | (cur.NumWrites - prev.NumWrites) |
		(cur.ReadBytes - prev.ReadBytes) | (cur.WriteBytes - prev.WriteBytes) | (cur.Errors - prev.Errors)
	c, p := cur.Cells(), prev.Cells()
	for i := range cellTable {
		lo := cellTable[i].Off
		bins := c[lo : lo+cellTable[i].Layout.NumBins()]
		was := p[lo:][:len(bins)]
		for j, n := range bins {
			neg |= n - was[j]
		}
	}
	return neg < 0
}

// noState is an empty snapshot with its cells, never written.
var noState = Snapshot{cells: make([]int64, snapshotWords)}

// AddInterval adds IntervalSince(prev, cur) into s, building no interval:
// counters, bins, sums and totals add; extrema become cur's if s's histogram
// was empty, stay if the interval's is, and else widen; Kept becomes 0. s
// is memory its caller alone holds, neither prev nor cur.
func (s *Snapshot) AddInterval(prev, cur *Snapshot) {
	if prev == nil || wentBack(prev, cur) {
		prev = &noState // the interval is all of cur
	}
	s.Kept = 0
	s.Commands, s.NumReads, s.NumWrites = s.Commands+cur.Commands-prev.Commands, s.NumReads+cur.NumReads-prev.NumReads, s.NumWrites+cur.NumWrites-prev.NumWrites
	s.ReadBytes, s.WriteBytes, s.Errors = s.ReadBytes+cur.ReadBytes-prev.ReadBytes, s.WriteBytes+cur.WriteBytes-prev.WriteBytes, s.Errors+cur.Errors-prev.Errors
	if len(s.cells) != snapshotWords {
		s.cells = make([]int64, snapshotWords)
	}
	d, c, p := s.cells, cur.Cells(), prev.Cells()
	c, p = c[:len(d)], p[:len(d)]
	for i, n := range c { // every cell, the extrema too: they are set below
		d[i] += n - p[i]
	}
	for i := range cellTable {
		tot := cellTable[i].Off + cellTable[i].Layout.NumBins() + 1 // after the bins and the sum
		// The interval's total, and s's extrema as they were before the add.
		added, lo, hi := c[tot]-p[tot], d[tot+1]-c[tot+1]+p[tot+1], d[tot+2]-c[tot+2]+p[tot+2]
		switch {
		case d[tot] == added: // s's histogram was empty
			lo, hi = c[tot+1], c[tot+2]
		case added != 0:
			lo, hi = min(lo, c[tot+1]), max(hi, c[tot+2])
		}
		d[tot+1], d[tot+2] = lo, hi
	}
}

// Stop ends recording. Stopped at the last tick's instant, as a run ending
// on an interval boundary is, it adds the commands issued at that instant
// after the tick to the last interval, so the intervals add up to all the
// collector saw since the recorder started.
func (r *IntervalRecorder) Stop() {
	r.ticker.Stop()
	if n := len(r.Intervals); n > 0 && r.lastAt == r.eng.Now() {
		cur := r.col.Snapshot()
		r.Intervals[n-1], r.last = r.Intervals[n-1].ApplyDelta(IntervalSince(r.last, cur)), cur
	}
}

// Series extracts the time series of one histogram family.
func (r *IntervalRecorder) Series(m Metric, cl Class) *histogram.Series {
	ts := &histogram.Series{IntervalMicros: r.interval.Micros()}
	for _, s := range r.Intervals {
		ts.Append(s.Histogram(m, cl))
	}
	return ts
}

// Rates returns the per-interval block-I/O command counts — the view behind
// the paper's observation that DBT-2's I/O rate varies "by as much as 15%
// over a 2 min period" (§4.2).
func (r *IntervalRecorder) Rates() []int64 {
	out := make([]int64, len(r.Intervals))
	for i, s := range r.Intervals {
		out[i] = s.Commands
	}
	return out
}
