package main

import (
	"testing"

	"vscsistats"
)

// TestIntervalsMeasureWhatTheTracerSees: with -interval, the recorder, the
// snapshot and the tracer all start at the end of warm-up. The tracer's
// completed commands are exactly the collector's (latency samples plus
// errors), and its issued commands differ from them only by the commands in
// flight at either end. The intervals add up to the snapshot, the commands
// issued at the last tick's instant after it included.
func TestIntervalsMeasureWhatTheTracerSees(t *testing.T) {
	sc, err := vscsistats.NewScenario("dbt2", vscsistats.ScenarioConfig{Seed: 1, DataBytes: 1 << 30, TraceCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var rec *vscsistats.IntervalRecorder
	recordIntervals(sc, vscsistats.Second, &rec)
	snap := sc.Run(2 * vscsistats.Second)
	rec.Stop()

	traced := int64(sc.VD.Tracer.Total())
	completed := snap.Histogram(vscsistats.MetricLatency, vscsistats.All).Total + snap.Errors
	inFlight := snap.Histogram(vscsistats.MetricOutstanding, vscsistats.All).Max + 1
	if traced == 0 || traced != completed || snap.Commands-traced > inFlight || traced-snap.Commands > inFlight {
		t.Errorf("tracer saw %d completions, the collector %d completions and %d commands (at most %d in flight)",
			traced, completed, snap.Commands, inFlight)
	}
	var interval int64
	for _, s := range rec.Intervals {
		interval += s.Commands
	}
	if len(rec.Intervals) != 2 || interval != snap.Commands {
		t.Errorf("%d intervals of %d commands in all, want 2 of %d", len(rec.Intervals), interval, snap.Commands)
	}
}
