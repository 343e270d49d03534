package workload

import (
	"testing"

	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/simclock"
)

// characterize runs gen against a fresh rig and returns the snapshot.
func characterize(t *testing.T, setup func(r *wlRig) Generator, dur simclock.Time) *core.Snapshot {
	t.Helper()
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	gen := setup(r)
	gen.Start()
	r.eng.RunUntil(dur)
	gen.Stop()
	return r.col.Snapshot()
}

func TestSynthReproducesIometerShape(t *testing.T) {
	// Characterize a known workload...
	original := characterize(t, func(r *wlRig) Generator {
		return NewIometer(r.eng, r.disk, EightKRandomRead())
	}, 2*simclock.Second)

	// ...synthesize from its histograms alone...
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	sy, err := NewSynth(r.eng, r.disk, original, 99)
	if err != nil {
		t.Fatal(err)
	}
	sy.Start()
	r.eng.RunUntil(2 * simclock.Second)
	sy.Stop()
	clone := r.col.Snapshot()
	if clone.Commands < 100 {
		t.Fatalf("synth generated only %d commands", clone.Commands)
	}

	// ...and compare shapes: length must match exactly (all 8K), seek
	// distance and read fraction closely.
	if d := analysis.Distance(original.Histogram(core.MetricIOLength, core.All), clone.Histogram(core.MetricIOLength, core.All)); d > 0.01 {
		t.Errorf("length distribution distance = %.3f", d)
	}
	if d := analysis.Distance(original.Histogram(core.MetricSeekDistance, core.All), clone.Histogram(core.MetricSeekDistance, core.All)); d > 0.15 {
		t.Errorf("seek distribution distance = %.3f", d)
	}
	if got, want := clone.ReadFraction(), original.ReadFraction(); got < want-0.05 || got > want+0.05 {
		t.Errorf("read fraction %.2f, want ~%.2f", got, want)
	}
}

func TestSynthSequentialStaysSequential(t *testing.T) {
	original := characterize(t, func(r *wlRig) Generator {
		return NewIometer(r.eng, r.disk, EightKSeqRead())
	}, simclock.Second)
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	sy, err := NewSynth(r.eng, r.disk, original, 5)
	if err != nil {
		t.Fatal(err)
	}
	sy.Start()
	r.eng.RunUntil(simclock.Second)
	sy.Stop()
	clone := r.col.Snapshot()
	seq := binCount(clone, core.MetricSeekDistance, core.All, "2") +
		binCount(clone, core.MetricSeekDistance, core.All, "0")
	if frac := float64(seq) / float64(clone.Histogram(core.MetricSeekDistance, core.All).Total); frac < 0.95 {
		t.Errorf("synthesized sequential fraction = %.2f", frac)
	}
}

func TestSynthInterarrivalPacing(t *testing.T) {
	// A 1-deep iometer at 1ms latency arrives every ~1ms; the synthetic
	// stream must keep roughly that rate.
	original := characterize(t, func(r *wlRig) Generator {
		spec := EightKRandomRead()
		spec.Outstanding = 1
		return NewIometer(r.eng, r.disk, spec)
	}, 2*simclock.Second)
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	sy, err := NewSynth(r.eng, r.disk, original, 6)
	if err != nil {
		t.Fatal(err)
	}
	sy.Start()
	r.eng.RunUntil(2 * simclock.Second)
	sy.Stop()
	origRate := float64(original.Commands) / 2
	cloneRate := float64(r.col.Snapshot().Commands) / 2
	if cloneRate < origRate/2 || cloneRate > origRate*2 {
		t.Errorf("synth rate %.0f/s vs original %.0f/s", cloneRate, origRate)
	}
}

func TestSynthRejectsEmptySnapshot(t *testing.T) {
	r := newWLRig(t, simclock.Millisecond, 1<<24)
	col := core.NewCollector("x", "y")
	col.Enable()
	if _, err := NewSynth(r.eng, r.disk, col.Snapshot(), 1); err == nil {
		t.Error("empty snapshot should be rejected")
	}
	if _, err := NewSynth(r.eng, r.disk, nil, 1); err == nil {
		t.Error("nil snapshot should be rejected")
	}
}

func TestSamplerRespectsBins(t *testing.T) {
	// All mass in one bin: samples stay within its range.
	h := core.NewCollector("v", "d")
	h.Enable()
	_ = h
	s := characterize(t, func(r *wlRig) Generator {
		return NewIometer(r.eng, r.disk, FourKSeqRead(4))
	}, simclock.Second)
	sm, err := newSampler(s.Histogram(core.MetricIOLength, core.All))
	if err != nil {
		t.Fatal(err)
	}
	rng := simclock.NewRand(3)
	for i := 0; i < 1000; i++ {
		v := sm.sample(rng)
		if v <= 2048 || v > 4096 {
			t.Fatalf("sample %d outside the 4K bin", v)
		}
	}
}
