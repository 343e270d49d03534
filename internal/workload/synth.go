package workload

import (
	"fmt"
	"math/rand"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// Synth replays a *characterization* rather than a trace: given a
// collector snapshot, it generates an I/O stream whose size, seek-distance,
// inter-arrival and read/write distributions match the histograms. This
// closes the loop the paper's related work opens — "using synthetic
// workloads, such as Iometer, to model applications is another well-known
// technique. However, that requires detailed knowledge of the
// characteristics of the workload being simulated" (§6) — the online
// histograms *are* that knowledge, so a measured workload can be
// re-generated elsewhere without shipping a trace.
type Synth struct {
	eng  *simclock.Engine
	disk *vscsi.Disk
	rng  *rand.Rand

	readFrac     float64
	length       *sampler
	seek         *sampler
	arrival      *sampler
	arrivalScale float64

	lastEnd uint64
	running bool
	stats   Stats
}

// NewSynth builds a generator from a snapshot. It fails if the snapshot
// lacks the distributions needed (no block I/O was observed).
func NewSynth(eng *simclock.Engine, disk *vscsi.Disk, s *core.Snapshot, seed int64) (*Synth, error) {
	if s == nil || s.Commands == 0 {
		return nil, fmt.Errorf("workload: snapshot holds no block I/O to synthesize from")
	}
	length, err := newSampler(s.Histogram(core.MetricIOLength, core.All))
	if err != nil {
		return nil, fmt.Errorf("workload: length distribution: %w", err)
	}
	seek, err := newSampler(s.Histogram(core.MetricSeekDistance, core.All))
	if err != nil {
		// A single-command snapshot has no seek samples; degenerate to
		// sequential.
		seek = nil
	}
	arrival, err := newSampler(s.Histogram(core.MetricInterarrival, core.All))
	arrivalScale := 1.0
	if err != nil {
		arrival = nil
	} else if am := arrival.mean(); am > 0 {
		// Uniform-within-bin sampling biases the mean upward when the
		// mass sits at a bin's low edge; the snapshot carries the exact
		// mean, so rescale gaps to preserve the arrival *rate* exactly.
		arrivalScale = s.Histogram(core.MetricInterarrival, core.All).Mean() / am
	}
	return &Synth{
		eng:          eng,
		disk:         disk,
		rng:          simclock.NewRand(seed),
		readFrac:     s.ReadFraction(),
		length:       length,
		seek:         seek,
		arrival:      arrival,
		arrivalScale: arrivalScale,
		lastEnd:      disk.CapacitySectors() / 2, // start mid-disk
	}, nil
}

// Name implements Generator.
func (sy *Synth) Name() string { return "synth" }

// Start begins generating; the stream is open-loop, paced purely by the
// inter-arrival distribution.
func (sy *Synth) Start() {
	sy.running = true
	sy.eng.After(0, func(simclock.Time) { sy.step() })
}

// Stop implements Generator.
func (sy *Synth) Stop() { sy.running = false }

// Stats implements Generator.
func (sy *Synth) Stats() Stats { return sy.stats }

func (sy *Synth) step() {
	if !sy.running {
		return
	}
	// Size: sampled within the histogram bin, rounded to whole sectors.
	bytes := sy.length.sample(sy.rng)
	if bytes < 512 {
		bytes = 512
	}
	blocks := uint32((bytes + 511) / 512)

	// Position: previous end plus a sampled signed seek distance, clamped
	// into the disk.
	var lba uint64
	delta := int64(1)
	if sy.seek != nil {
		delta = sy.seek.sample(sy.rng)
	}
	pos := int64(sy.lastEnd) + delta
	capacity := int64(sy.disk.CapacitySectors())
	for pos < 0 {
		pos += capacity
	}
	if pos+int64(blocks) > capacity {
		pos = pos % (capacity - int64(blocks))
	}
	lba = uint64(pos)
	sy.lastEnd = lba + uint64(blocks) - 1

	cmd := scsi.Write(lba, blocks)
	if sy.rng.Float64() < sy.readFrac {
		cmd = scsi.Read(lba, blocks)
	}
	start := sy.eng.Now()
	if _, err := sy.disk.Issue(cmd, func(r *vscsi.Request) {
		sy.stats.Ops++
		sy.stats.Bytes += cmd.Bytes()
		sy.stats.TotalLatency += sy.eng.Now() - start
		if r.Status != scsi.StatusGood {
			sy.stats.Errors++
		}
	}); err != nil {
		sy.stats.Errors++
	}

	gap := simclock.Millisecond
	if sy.arrival != nil {
		us := float64(sy.arrival.sample(sy.rng)) * sy.arrivalScale
		gap = simclock.Time(us) * simclock.Microsecond
		if gap < simclock.Microsecond {
			gap = simclock.Microsecond
		}
	}
	sy.eng.After(gap, func(simclock.Time) { sy.step() })
}

// sampler draws values from a histogram snapshot: a bin is chosen with
// probability proportional to its count, then a value uniform within the
// bin's (lo, hi] range — the best reconstruction the binned data permits.
type sampler struct {
	snap  *histogram.Snapshot
	cum   []int64
	total int64
}

func newSampler(s *histogram.Snapshot) (*sampler, error) {
	if s == nil || s.Total == 0 {
		return nil, fmt.Errorf("empty histogram")
	}
	sm := &sampler{snap: s, cum: make([]int64, len(s.Counts))}
	var run int64
	for i, c := range s.Counts {
		run += c
		sm.cum[i] = run
	}
	sm.total = run
	return sm, nil
}

// mean is the sampler's analytic expected value (the midpoint of each
// bin's effective range weighted by its count).
func (sm *sampler) mean() float64 {
	var sum float64
	for bin, c := range sm.snap.Counts {
		if c == 0 {
			continue
		}
		lo, hi := sm.effectiveRange(bin)
		sum += float64(c) * (float64(lo+1) + float64(hi)) / 2
	}
	return sum / float64(sm.total)
}

func (sm *sampler) effectiveRange(bin int) (lo, hi int64) {
	lo, hi = sm.snap.BinRange(bin)
	if bin == 0 && sm.snap.Min > lo {
		lo = sm.snap.Min - 1
	}
	if bin == len(sm.snap.Counts)-1 && sm.snap.Max < hi {
		hi = sm.snap.Max
	}
	return lo, hi
}

func (sm *sampler) sample(rng *rand.Rand) int64 {
	r := rng.Int63n(sm.total)
	bin := 0
	for sm.cum[bin] <= r {
		bin++
	}
	lo, hi := sm.effectiveRange(bin)
	if hi <= lo+1 {
		return hi
	}
	return lo + 1 + rng.Int63n(hi-lo)
}
