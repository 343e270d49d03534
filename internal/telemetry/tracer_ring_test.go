package telemetry_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
)

// TestLifecycleRingWraparound fills a command tracer past its capacity and
// checks, through the Chrome trace the tracer renders with
// telemetry.WriteChromeTrace, that the ring keeps the newest commands
// oldest first while Total counts them all; a partly filled ring keeps
// insertion order.
func TestLifecycleRingWraparound(t *testing.T) {
	for _, tc := range []struct {
		capacity, issued int
		seqs             []float64
	}{
		{capacity: 4, issued: 10, seqs: []float64{6, 7, 8, 9}},
		{capacity: 8, issued: 3, seqs: []float64{0, 1, 2}},
	} {
		tr := trace.NewTracer(tc.capacity)
		tr.Enable()
		eng := simclock.NewEngine()
		d := vscsi.NewDisk(eng, vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
			eng.After(50*simclock.Microsecond, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
		}), vscsi.DiskConfig{VM: "vm", Name: "d", CapacitySectors: 1 << 20})
		d.AddObserver(tr)
		for i := 0; i < tc.issued; i++ {
			eng.At(simclock.Time(i)*simclock.Microsecond, func(simclock.Time) { d.Issue(scsi.Read(uint64(i*8), 8), nil) })
		}
		eng.Run()
		if tr.Total() != uint64(tc.issued) {
			t.Errorf("capacity %d: Total = %d, want %d", tc.capacity, tr.Total(), tc.issued)
		}

		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var events []struct {
			Ph      string
			TS, Dur int64
			Args    struct{ Seq float64 }
		}
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("capacity %d: trace is not valid JSON: %v", tc.capacity, err)
		}
		seqs := []float64{}
		for _, e := range events {
			if e.Ph != "X" {
				continue
			}
			seqs = append(seqs, e.Args.Seq)
			if e.TS != int64(e.Args.Seq) || e.Dur != 50 {
				t.Errorf("capacity %d: seq %v at ts %d dur %d, want ts %v dur 50", tc.capacity, e.Args.Seq, e.TS, e.Dur, e.Args.Seq)
			}
		}
		if !slices.Equal(seqs, tc.seqs) {
			t.Errorf("capacity %d: ring holds seqs %v, want %v (oldest first)", tc.capacity, seqs, tc.seqs)
		}
	}
}
