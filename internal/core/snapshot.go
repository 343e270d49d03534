package core

import (
	"fmt"
	"strings"

	"vscsistats/internal/histogram"
)

// Metric names the collector's histogram families.
type Metric string

// Metrics collected by the service.
const (
	MetricIOLength     Metric = "ioLength"
	MetricSeekDistance Metric = "seekDistance"
	MetricSeekWindowed Metric = "seekDistanceWindowed"
	MetricOutstanding  Metric = "outstandingIOs"
	MetricLatency      Metric = "latency"
	MetricInterarrival Metric = "interarrival"
)

// Metrics lists every metric family in display order.
func Metrics() []Metric {
	return []Metric{MetricIOLength, MetricSeekDistance, MetricSeekWindowed,
		MetricOutstanding, MetricLatency, MetricInterarrival}
}

// Class selects the operation breakdown of a metric.
type Class int

// Breakdown classes (§3.4: "we also separate out histograms for read and
// write commands").
const (
	All Class = iota
	Reads
	Writes
)

// String names the class.
func (cl Class) String() string {
	switch cl {
	case Reads:
		return "reads"
	case Writes:
		return "writes"
	default:
		return "all"
	}
}

// Snapshot is an immutable copy of everything a collector has gathered.
type Snapshot struct {
	VM, Disk string

	IOLength     [3]*histogram.Snapshot
	SeekDistance [3]*histogram.Snapshot
	SeekWindowed *histogram.Snapshot
	Outstanding  [3]*histogram.Snapshot
	Latency      [3]*histogram.Snapshot
	Interarrival [3]*histogram.Snapshot

	Commands   int64
	NumReads   int64
	NumWrites  int64
	ReadBytes  int64
	WriteBytes int64
	Errors     int64
}

// Snapshot copies the collector's current state. It returns nil if the
// service has never been enabled (no data structures exist).
//
// Snapshot is safe to call while other goroutines issue commands or Reset
// the collector. It copies the slab, the extrema and the error count under
// the collector's lock, into memory allocated before taking it, so a
// command waits for one ~1.4 KB copy at most and the copy is a consistent
// cut: every command is in it with all its samples or not at all. The issue
// side therefore agrees with itself in every snapshot, quiescent or not —
// with no Reset or BreakStream in between, IOLength and Outstanding total
// Commands, and SeekDistance, SeekWindowed and Interarrival Commands − 1.
//
// The collector stores only the reads and writes histograms; everything
// derivable is derived here, outside the lock, from the copy. So each
// family's All is exactly Reads + Writes — bins, Sum, Total, and Min/Max
// over whichever classes are non-empty — Commands == NumReads + NumWrites
// == IOLength[All].Total, and the byte counters are the I/O length sums.
func (c *Collector) Snapshot() *Snapshot {
	cells := make([]int64, slabWords)
	c.mu.Lock()
	h := c.h
	if h == nil {
		c.mu.Unlock()
		return nil
	}
	copy(cells, h.cells)
	min, max, errors := h.min, h.max, h.errors
	c.mu.Unlock()
	c.self.noteSnapshot()

	one := func(id int) *histogram.Snapshot {
		sp := &slab[id]
		return sp.layout.Snapshot(sp.name, cells[sp.off:], min[id], max[id])
	}
	family := func(id int) [3]*histogram.Snapshot {
		r, w := one(id+classRead), one(id+classWrite)
		all := r.Clone()
		all.Name = families[id/2].name
		all.Add(w)
		return [3]*histogram.Snapshot{All: all, Reads: r, Writes: w}
	}
	s := &Snapshot{
		VM:           c.vm,
		Disk:         c.disk,
		IOLength:     family(hIOLength),
		SeekDistance: family(hSeekDistance),
		SeekWindowed: one(hSeekWindowed),
		Outstanding:  family(hOutstanding),
		Latency:      family(hLatency),
		Interarrival: family(hInterarrival),
		Errors:       errors,
	}
	s.Commands = s.IOLength[All].Total
	s.NumReads, s.ReadBytes = s.IOLength[Reads].Total, s.IOLength[Reads].Sum
	s.NumWrites, s.WriteBytes = s.IOLength[Writes].Total, s.IOLength[Writes].Sum
	return s
}

// Histogram returns the named histogram for the given class. The windowed
// seek-distance metric has no read/write breakdown; all classes return the
// same histogram for it.
func (s *Snapshot) Histogram(m Metric, cl Class) *histogram.Snapshot {
	switch m {
	case MetricIOLength:
		return s.IOLength[cl]
	case MetricSeekDistance:
		return s.SeekDistance[cl]
	case MetricSeekWindowed:
		return s.SeekWindowed
	case MetricOutstanding:
		return s.Outstanding[cl]
	case MetricLatency:
		return s.Latency[cl]
	case MetricInterarrival:
		return s.Interarrival[cl]
	default:
		return nil
	}
}

// ReadFraction returns reads as a fraction of all block I/Os, in [0,1].
func (s *Snapshot) ReadFraction() float64 {
	if s.Commands == 0 {
		return 0
	}
	return float64(s.NumReads) / float64(s.Commands)
}

// Sub returns the interval snapshot s minus earlier: every histogram and
// counter becomes the delta accumulated between the two snapshots. Used by
// the interval recorder for the paper's "histogram over time" figures and
// by fleet history queries for windowed views of the segment log. A nil
// earlier means "since the beginning": the interval is everything s ever
// accumulated, so s itself is returned (snapshots are immutable, sharing
// is safe).
func (s *Snapshot) Sub(earlier *Snapshot) *Snapshot {
	if earlier == nil {
		return s
	}
	d := &Snapshot{
		VM:           s.VM,
		Disk:         s.Disk,
		SeekWindowed: s.SeekWindowed.Sub(earlier.SeekWindowed),
		Commands:     s.Commands - earlier.Commands,
		NumReads:     s.NumReads - earlier.NumReads,
		NumWrites:    s.NumWrites - earlier.NumWrites,
		ReadBytes:    s.ReadBytes - earlier.ReadBytes,
		WriteBytes:   s.WriteBytes - earlier.WriteBytes,
		Errors:       s.Errors - earlier.Errors,
	}
	for class := 0; class < 3; class++ {
		d.IOLength[class] = s.IOLength[class].Sub(earlier.IOLength[class])
		d.SeekDistance[class] = s.SeekDistance[class].Sub(earlier.SeekDistance[class])
		d.Outstanding[class] = s.Outstanding[class].Sub(earlier.Outstanding[class])
		d.Latency[class] = s.Latency[class].Sub(earlier.Latency[class])
		d.Interarrival[class] = s.Interarrival[class].Sub(earlier.Interarrival[class])
	}
	return d
}

// ApplyDelta returns the snapshot equal to s plus the interval delta d
// (as produced by Sub): counters add and every histogram reapplies
// bin-wise, so for any two snapshots of one collector
//
//	later == earlier.ApplyDelta(later.Sub(earlier))
//
// exactly, across all six metrics and three classes. The receiver and the
// delta are left untouched; the result is freshly allocated. This is the
// aggregator side of the fleet delta-push protocol.
func (s *Snapshot) ApplyDelta(d *Snapshot) *Snapshot {
	out := &Snapshot{
		VM:           s.VM,
		Disk:         s.Disk,
		SeekWindowed: s.SeekWindowed.ApplyDelta(d.SeekWindowed),
		Commands:     s.Commands + d.Commands,
		NumReads:     s.NumReads + d.NumReads,
		NumWrites:    s.NumWrites + d.NumWrites,
		ReadBytes:    s.ReadBytes + d.ReadBytes,
		WriteBytes:   s.WriteBytes + d.WriteBytes,
		Errors:       s.Errors + d.Errors,
	}
	for class := 0; class < 3; class++ {
		out.IOLength[class] = s.IOLength[class].ApplyDelta(d.IOLength[class])
		out.SeekDistance[class] = s.SeekDistance[class].ApplyDelta(d.SeekDistance[class])
		out.Outstanding[class] = s.Outstanding[class].ApplyDelta(d.Outstanding[class])
		out.Latency[class] = s.Latency[class].ApplyDelta(d.Latency[class])
		out.Interarrival[class] = s.Interarrival[class].ApplyDelta(d.Interarrival[class])
	}
	return out
}

// StateEquals reports whether two snapshots carry identical observed state:
// every counter and, per histogram, total, sum, extrema and each bin. Names
// (VM/Disk) are not compared — rollups rename. A fleet agent uses this to
// omit unchanged disks from delta pushes, so it must be exact, not
// approximate: if StateEquals holds, replaying nothing reconstructs o
// from s.
func (s *Snapshot) StateEquals(o *Snapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Commands != o.Commands || s.NumReads != o.NumReads || s.NumWrites != o.NumWrites ||
		s.ReadBytes != o.ReadBytes || s.WriteBytes != o.WriteBytes || s.Errors != o.Errors {
		return false
	}
	for _, m := range Metrics() {
		classes := []Class{All, Reads, Writes}
		if m == MetricSeekWindowed {
			classes = classes[:1]
		}
		for _, cl := range classes {
			ha, hb := s.Histogram(m, cl), o.Histogram(m, cl)
			if ha == nil || hb == nil {
				if ha != hb {
					return false
				}
				continue
			}
			if ha.Total != hb.Total || ha.Sum != hb.Sum || ha.Min != hb.Min || ha.Max != hb.Max {
				return false
			}
			if len(ha.Counts) != len(hb.Counts) {
				return false
			}
			for i := range ha.Counts {
				if ha.Counts[i] != hb.Counts[i] {
					return false
				}
			}
		}
	}
	return true
}

// Summary renders a one-screen textual overview: counters plus the modal
// bin of each primary histogram.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "VM %s disk %s: %d commands (%d reads, %d writes, %.0f%% reads), %d errors\n",
		s.VM, s.Disk, s.Commands, s.NumReads, s.NumWrites, 100*s.ReadFraction(), s.Errors)
	fmt.Fprintf(&b, "  bytes: read %d, written %d\n", s.ReadBytes, s.WriteBytes)
	for _, m := range Metrics() {
		h := s.Histogram(m, All)
		if h == nil || h.Total == 0 {
			continue
		}
		mode, modeCount := 0, int64(-1)
		for i, c := range h.Counts {
			if c > modeCount {
				mode, modeCount = i, c
			}
		}
		fmt.Fprintf(&b, "  %-22s mean=%-12.1f mode=%s (%d of %d)\n",
			string(m), h.Mean(), h.BinLabel(mode), modeCount, h.Total)
	}
	return b.String()
}

// Render renders the selected histograms as ASCII charts.
func (s *Snapshot) Render(metrics []Metric, cl Class) string {
	var b strings.Builder
	for _, m := range metrics {
		h := s.Histogram(m, cl)
		if h == nil {
			continue
		}
		b.WriteString(h.Render(50))
		b.WriteByte('\n')
	}
	return b.String()
}
