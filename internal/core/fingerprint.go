package core

import (
	"fmt"
	"strings"
)

// Fingerprint is a compact workload classification derived from a snapshot.
// The paper's §7 proposes "automatic categorization of workloads and
// generation of recommendations for virtual disk placement and storage
// subsystem optimization" as future work; this implements that proposal on
// top of the environment-independent metrics (§3.7: spatial locality,
// request size, outstanding I/Os, read/write ratio).
type Fingerprint struct {
	// AccessPattern is Sequential, Random or Mixed, judged from the
	// windowed seek-distance histogram (robust to interleaved streams).
	AccessPattern Pattern
	// SequentialFraction is the share of I/Os within ±16 sectors of a
	// recent I/O.
	SequentialFraction float64
	// ReverseScanFraction is the share of strictly negative seek
	// distances beyond the near field — the reverse scans §3.1 calls out
	// as "really important" to detect.
	ReverseScanFraction float64
	// ReadFraction is reads / all block I/Os.
	ReadFraction float64
	// DominantIOBytes is the upper edge of the modal I/O length bin.
	DominantIOBytes int64
	// MeanOutstanding is the average queue depth at arrival.
	MeanOutstanding float64
	// Bursty reports high inter-arrival variance (P95 >> mean).
	Bursty bool
}

// Pattern classifies spatial locality.
type Pattern string

// Access patterns.
const (
	PatternSequential Pattern = "sequential"
	PatternRandom     Pattern = "random"
	PatternMixed      Pattern = "mixed"
)

// nearFieldSectors bounds the seek distance considered "local": 16 sectors
// covers the paper's central histogram bins (−16 … 16).
const nearFieldSectors = 16

// FingerprintOf classifies a snapshot. It returns the zero Fingerprint if
// the snapshot holds no block I/Os.
func FingerprintOf(s *Snapshot) Fingerprint {
	var f Fingerprint
	if s == nil || s.Commands == 0 {
		return f
	}
	f.ReadFraction = s.ReadFraction()

	seek := s.Histogram(MetricSeekWindowed, All)
	if seek.Total == 0 {
		seek = s.Histogram(MetricSeekDistance, All)
	}
	if seek.Total > 0 {
		var near, reverse int64
		for i, c := range seek.Counts {
			lo, hi := seek.BinRange(i)
			if lo >= -nearFieldSectors-1 && hi <= nearFieldSectors {
				near += c
			}
			if hi < -nearFieldSectors {
				reverse += c
			}
		}
		f.SequentialFraction = float64(near) / float64(seek.Total)
		f.ReverseScanFraction = float64(reverse) / float64(seek.Total)
	}
	switch {
	case f.SequentialFraction >= 0.7:
		f.AccessPattern = PatternSequential
	case f.SequentialFraction <= 0.3:
		f.AccessPattern = PatternRandom
	default:
		f.AccessPattern = PatternMixed
	}

	if lh := s.Histogram(MetricIOLength, All); lh.Total > 0 {
		mode, modeCount := 0, int64(-1)
		for i, c := range lh.Counts {
			if c > modeCount {
				mode, modeCount = i, c
			}
		}
		if mode < len(lh.Edges) {
			f.DominantIOBytes = lh.Edges[mode]
		} else {
			f.DominantIOBytes = lh.Max
		}
	}
	f.MeanOutstanding = s.Histogram(MetricOutstanding, All).Mean()
	if ia := s.Histogram(MetricInterarrival, All); ia.Total > 4 && ia.Mean() > 0 {
		f.Bursty = float64(ia.Percentile(95)) > 8*ia.Mean()
	}
	return f
}

// String renders the fingerprint on one line.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%s (%.0f%% local), %.0f%% reads, dominant %dB, mean OIO %.1f, bursty=%v",
		f.AccessPattern, 100*f.SequentialFraction, 100*f.ReadFraction,
		f.DominantIOBytes, f.MeanOutstanding, f.Bursty)
}

// Recommendations derives storage-placement advice from the fingerprint, in
// the spirit of the paper's §7 and its striping citation ([1]: "optimizing
// RAID stripe size for a particular application requires the knowledge of
// the size distribution of I/Os").
func (f Fingerprint) Recommendations() []string {
	var recs []string
	if f.DominantIOBytes > 0 {
		recs = append(recs, fmt.Sprintf(
			"set RAID stripe unit to at least %d bytes so a typical I/O touches one disk", f.DominantIOBytes))
	}
	switch f.AccessPattern {
	case PatternSequential:
		recs = append(recs, "sequential stream: keep this virtual disk on a contiguous extent and enable array read-ahead")
	case PatternRandom:
		recs = append(recs, "random access: favor more spindles / SSD tier over read-ahead; read-ahead will not help")
	case PatternMixed:
		recs = append(recs, "mixed pattern: consider splitting the workload across virtual disks to separate its sequential and random parts (§3.6)")
	}
	if f.ReverseScanFraction > 0.1 {
		recs = append(recs, "frequent reverse scans detected: review the application's data layout (§3.1)")
	}
	if f.MeanOutstanding >= 16 {
		recs = append(recs, "deep queues: ensure the array target queue depth exceeds the observed mean outstanding I/Os")
	} else if f.MeanOutstanding > 0 && f.MeanOutstanding < 2 && f.AccessPattern != PatternSequential {
		recs = append(recs, "single-threaded random I/O: latency, not bandwidth, bounds this workload")
	}
	if f.ReadFraction < 0.3 {
		recs = append(recs, "write-heavy: verify write-back cache capacity and destage policy (§3.4)")
	}
	if f.Bursty {
		recs = append(recs, "bursty arrivals: provision for peak, not mean, throughput")
	}
	return recs
}

// Report renders the fingerprint and recommendations as a small block of
// text.
func (f Fingerprint) Report() string {
	var b strings.Builder
	b.WriteString("fingerprint: " + f.String() + "\n")
	for _, r := range f.Recommendations() {
		b.WriteString("  - " + r + "\n")
	}
	return b.String()
}
