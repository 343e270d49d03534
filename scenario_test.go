package vscsistats_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vscsistats"
)

// TestScenarioInvariants runs every catalog scenario briefly and checks the
// cross-module invariants that must hold regardless of workload: histogram
// mass conservation, counter consistency, error-free operation, and JSON
// round-tripping of the snapshot.
func TestScenarioInvariants(t *testing.T) {
	for _, name := range vscsistats.Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := vscsistats.NewScenario(name, vscsistats.ScenarioConfig{
				Seed: 7, DataBytes: 256 << 20, TraceCapacity: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := sc.Run(8 * vscsistats.Second)
			if s.Commands == 0 {
				t.Fatal("scenario generated no block I/O")
			}
			if s.Errors != 0 {
				t.Errorf("errors: %d", s.Errors)
			}
			if s.NumReads+s.NumWrites != s.Commands {
				t.Errorf("reads %d + writes %d != commands %d", s.NumReads, s.NumWrites, s.Commands)
			}
			// Arrival-side histograms hold exactly one sample per command.
			for _, m := range []vscsistats.Metric{vscsistats.MetricIOLength, vscsistats.MetricOutstanding} {
				if got := s.Histogram(m, vscsistats.All).Total; got != s.Commands {
					t.Errorf("%s total %d != commands %d", m, got, s.Commands)
				}
			}
			// Class histograms partition the all-class histogram.
			all := s.Histogram(vscsistats.MetricIOLength, vscsistats.All)
			reads := s.Histogram(vscsistats.MetricIOLength, vscsistats.Reads)
			writes := s.Histogram(vscsistats.MetricIOLength, vscsistats.Writes)
			for i := range all.Counts {
				if all.Counts[i] != reads.Counts[i]+writes.Counts[i] {
					t.Errorf("bin %d not partitioned: %d != %d+%d",
						i, all.Counts[i], reads.Counts[i], writes.Counts[i])
					break
				}
			}
			// Seek distance has one sample per command after the first.
			if got := s.Histogram(vscsistats.MetricSeekDistance, vscsistats.All).Total; got != s.Commands-1 {
				t.Errorf("seek total %d != commands-1 %d", got, s.Commands-1)
			}
			// Snapshot JSON round-trips.
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back vscsistats.Snapshot
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if back.Commands != s.Commands {
				t.Errorf("round trip lost commands: %d != %d", back.Commands, s.Commands)
			}
			// Tracer captured the same commands the collector counted
			// (the tracer sees completions; in-flight tails may differ by
			// the still-outstanding window).
			recs := sc.VD.Tracer.Records()
			if int64(len(recs)) == 0 {
				t.Error("tracer empty")
			}
			// Generator made progress and agrees something happened.
			if sc.Gen.Stats().Ops == 0 {
				t.Error("generator reports no ops")
			}
		})
	}
}

// TestTracerAttachedOnlyWhenAsked: a scenario holds no command tracer
// unless its config sizes one, so a plain run keeps the paper's O(m) space.
func TestTracerAttachedOnlyWhenAsked(t *testing.T) {
	for capacity, want := range map[int]bool{0: false, 64: true} {
		sc, err := vscsistats.NewScenario("iometer-4k-seq", vscsistats.ScenarioConfig{
			Seed: 1, DataBytes: 64 << 20, TraceCapacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.VD.Tracer != nil; got != want {
			t.Errorf("TraceCapacity %d: tracer attached = %v, want %v", capacity, got, want)
		}
	}
}

// TestTracerServesWhileScenarioRuns serves GET /debug/trace and fires
// control verbs through the stats handler while a scenario's engine
// records into the same tracer, which under -race is the test of its one
// lock. Every response is a Chrome trace that parses with no negative
// duration; a verb fired after the run is the newest entry, so the last
// trace must hold it as a control instant.
func TestTracerServesWhileScenarioRuns(t *testing.T) {
	sc, err := vscsistats.NewScenario("iometer-4k-seq", vscsistats.ScenarioConfig{
		Seed: 3, DataBytes: 64 << 20, TraceCapacity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := sc.VD.Tracer
	h := vscsistats.NewStatsHandlerWith(sc.Host.Registry(), vscsistats.StatsOptions{Trace: tr, OnControl: tr.Control})
	snapshot := "/disks/" + sc.Name + "/scsi0:0"
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	serve := func() (slices, controls int) {
		rec := get("/debug/trace")
		var events []struct {
			Ph, Cat string
			Dur     *int64
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &events); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("GET /debug/trace: %d, %v", rec.Code, err)
		}
		for _, e := range events {
			switch {
			case e.Ph == "X" && (e.Dur == nil || *e.Dur < 0):
				t.Fatalf("slice with duration %v", e.Dur)
			case e.Ph == "X":
				slices++
			case e.Ph == "i" && e.Cat == "control":
				controls++
			}
		}
		return slices, controls
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		sc.Run(vscsistats.Second)
	}()
	served := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			get(snapshot)
			if tr.Enabled() {
				serve()
				served++
			}
		}
	}
	if served == 0 {
		t.Error("no trace was served while the engine recorded")
	}
	if rec := get(snapshot); rec.Code != http.StatusOK {
		t.Fatalf("GET %s: %d", snapshot, rec.Code)
	}
	if slices, controls := serve(); slices == 0 || controls == 0 {
		t.Errorf("last trace holds %d slices and %d control instants, want both", slices, controls)
	}
}
