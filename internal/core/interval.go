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

// IntervalSince is the one rule every interval keeper (IntervalRecorder on
// virtual time, telemetry.Streamer on wall time, the fleet aggregator's
// History over its log) turns two consecutive cumulative snapshots of a
// disk into one interval's activity with. It is cur.Sub(prev) unless prev
// is nil (the first point) or any counter or bin in cur is below prev (the
// collector was Reset, or its host restarted, in between): then the
// interval is cur itself, everything accumulated since. Sub stays the exact
// signed delta — the fleet agent's wire deltas and
// later == earlier.ApplyDelta(later.Sub(earlier)) need it to wrap.
func IntervalSince(prev, cur *Snapshot) *Snapshot {
	d := cur.Sub(prev)
	if d.Commands < 0 || d.NumReads < 0 || d.NumWrites < 0 || d.ReadBytes < 0 || d.WriteBytes < 0 || d.Errors < 0 {
		return cur
	}
	cells := d.Cells()
	for i := range cellTable {
		h := &cellTable[i]
		for _, n := range h.Of(cells)[:h.Layout.NumBins()] {
			if n < 0 {
				return cur
			}
		}
	}
	return d
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
