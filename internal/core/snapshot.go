package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
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

// Snapshot is an immutable copy of everything a collector has gathered: the
// disk's name, six counters and one vector of cells holding all sixteen
// histograms back to back, in CellTable order. Every snapshot has the same
// layout, so any two can be merged, subtracted or compared cell by cell; the
// zero value (no vector) is the empty snapshot and behaves as all zeros.
type Snapshot struct {
	VM, Disk string

	Commands   int64
	NumReads   int64
	NumWrites  int64
	ReadBytes  int64
	WriteBytes int64
	Errors     int64

	// Kept marks, on a Sub delta, each extremum equal to the earlier's: bit
	// 2k the min of CellTable's histogram k, bit 2k+1 its max; the cells
	// hold the later's. A fleet delta frame leaves them out, so a delta
	// decoded without its base holds placeholders in the kept cells and the
	// class-all extrema derived from them (KeptWhole): only the fleet
	// decoder reading it against its base, or ApplyDelta onto it, makes it
	// whole. Any other snapshot (capture, ApplyDelta, AddInterval, decode
	// onto a base) has Kept 0.
	Kept uint64

	cells []int64 // nil or snapshotWords long
}

// Snapshot copies the collector's current state into a fresh snapshot. It
// returns nil if the service has never been enabled (no data structures
// exist). See CaptureInto.
func (c *Collector) Snapshot() *Snapshot {
	s := new(Snapshot)
	if !c.CaptureInto(s) {
		return nil
	}
	return s
}

// CaptureInto copies the collector's current state into dst, overwriting
// everything dst held and reusing its cells, and reports false, leaving
// dst's contents unspecified, if the service has never been enabled. Only
// an owner no one else reads dst through may hand it in.
//
// CaptureInto is safe to call while other goroutines issue commands or
// Reset the collector. It copies the slab, the extrema and the error count
// under the collector's lock into dst's memory, so a command waits for one
// ~1.4 KB copy at most and the copy is a consistent cut: every command is
// in it with all its samples or not at all. So, with no Reset or
// BreakStream in between, I/O length and outstanding I/Os total Commands,
// and both seek distances and inter-arrival Commands − 1.
//
// The collector stores only the reads and writes histograms; the rest is
// derived here (derive), outside the lock. Each family's all is exactly
// reads + writes (bins, sum, total, and min/max over the non-empty
// classes), Commands == NumReads + NumWrites == the I/O length total, and
// the byte counters are the I/O length sums. An empty histogram reports
// min = max = 0.
func (c *Collector) CaptureInto(dst *Snapshot) bool {
	if len(dst.cells) != snapshotWords {
		dst.cells = make([]int64, snapshotWords)
	}
	cells := dst.cells
	c.mu.Lock()
	h := c.h
	if h == nil {
		c.mu.Unlock()
		return false
	}
	for id := range slab {
		sp := &slab[id]
		copy(sp.hist.Of(cells), h.cells[sp.off:sp.sum+1]) // bins and sum
	}
	min, max := h.min, h.max
	dst.Errors = h.errors
	c.mu.Unlock()
	c.self.noteSnapshot()

	for id := range slab {
		own := slab[id].hist.Of(cells)
		total := len(own) - 3
		own[total], own[total+1], own[total+2] = 0, 0, 0
		slab[id].layout.Seal(own, min[id], max[id])
	}
	dst.VM, dst.Disk, dst.Kept = c.vm, c.disk, 0
	dst.derive(true)
	return true
}

// Derived reports whether s holds what CaptureInto derives from the reads
// and writes histograms (class-all, the counters but Errors) and every
// total is the sum of its bins: true of captures, their Sub deltas and
// Aggregate merges, but for a class with no new samples and extrema (0, 0).
func (s *Snapshot) Derived() bool { return s.derive(false) }

// derive is the one statement of what is derivable: it reports whether s
// holds it, totals included, and, if write, sets it.
func (s *Snapshot) derive(write bool) (held bool) {
	cells := s.Cells()
	var diff int64
	for id := range slab {
		w := slab[id].hist.Of(cells)
		n := len(w) - 4
		if !write { // a total is checked, never derived
			var total int64
			for _, c := range w[:n] {
				total += c
			}
			diff |= total ^ w[n+1]
		}
		if id%2 == classRead || slab[id].all == nil {
			continue
		}
		r, all := slab[id-1].hist.Of(cells)[:n+4], slab[id].all.Of(cells)[:n+4]
		lo, hi := AllExtrema(r[n+1:], w[n+1:])
		if write { // bins, sum and total add
			for i := range n + 2 {
				all[i] = r[i] + w[i]
			}
			all[n+2], all[n+3] = lo, hi
			continue
		}
		for i := range n + 2 {
			diff |= all[i] ^ (r[i] + w[i])
		}
		diff |= (all[n+2] ^ lo) | (all[n+3] ^ hi)
	}
	reads, readBytes := slab[hIOLength+classRead].hist.totalSum(cells)
	writes, writeBytes := slab[hIOLength+classWrite].hist.totalSum(cells)
	if write {
		s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes = reads+writes, reads, writes, readBytes, writeBytes
	}
	diff |= (s.Commands ^ (reads + writes)) | (s.NumReads ^ reads) | (s.NumWrites ^ writes) | (s.ReadBytes ^ readBytes) | (s.WriteBytes ^ writeBytes)
	return diff == 0
}

// AllExtrema returns a class-all histogram's min and max from its reads'
// and writes' (total, min, max) as a capture derives them: as AddInterval
// folds them, but a class is empty only if its total is 0 and its extrema
// (0, 0), since a Sub delta with no new reads keeps the later capture's.
func AllExtrema(r, w []int64) (lo, hi int64) {
	switch {
	case r[0]|r[1]|r[2] == 0:
		return w[1], w[2]
	case w[0]|w[1]|w[2] == 0:
		return r[1], r[2]
	}
	return min(r[1], w[1]), max(r[2], w[2])
}

// totalSum returns the histogram's total and sum out of a snapshot's cells.
func (h *HistCells) totalSum(cells []int64) (total, sum int64) {
	n := h.Off + h.Layout.NumBins()
	return cells[n+1], cells[n]
}

// MakeWritable replaces each snapshot in snaps with a copy of it, and each nil
// with an empty snapshot, two allocations behind them all, for a decoder to
// write (the histograms through Cells) before anyone else sees them.
func MakeWritable(snaps []*Snapshot) {
	structs := make([]Snapshot, len(snaps))
	cells := make([]int64, len(snaps)*snapshotWords)
	for i, src := range snaps {
		s, own := &structs[i], cells[i*snapshotWords:(i+1)*snapshotWords:(i+1)*snapshotWords]
		if src != nil {
			*s = *src
			copy(own, src.cells)
		}
		s.cells, snaps[i] = own, s
	}
}

// Cells returns the snapshot's cell vector, laid out as CellTable says: its
// own memory, which only the decoder that made it may write, or fresh zeros
// for the empty snapshot.
func (s *Snapshot) Cells() []int64 {
	if s.cells == nil {
		return make([]int64, snapshotWords)
	}
	return s.cells
}

// Histogram returns the named histogram for the given class as a view over
// the snapshot's cells: nothing is copied, and the view is as immutable as
// the snapshot. The windowed seek-distance metric has no read/write
// breakdown; all classes return the same histogram for it. An unknown
// metric or class returns nil.
func (s *Snapshot) Histogram(m Metric, cl Class) *histogram.Snapshot {
	if m == MetricSeekWindowed {
		cl = All
	}
	for i := range cellTable {
		if h := &cellTable[i]; h.Metric == m && h.Class == cl {
			return h.view(s.Cells())
		}
	}
	return nil
}

// view returns the histogram as a view over a snapshot's cells.
func (h *HistCells) view(cells []int64) *histogram.Snapshot {
	return h.Layout.View(h.Name, h.Of(cells))
}

// ReadFraction returns reads as a fraction of all block I/Os, in [0,1].
func (s *Snapshot) ReadFraction() float64 {
	if s.Commands == 0 {
		return 0
	}
	return float64(s.NumReads) / float64(s.Commands)
}

// plus sets dst to s + sign·o, named as s: counters and every count, sum
// and total cell; with sign −1 (Sub) s's extrema, marking those equal to
// o's Kept, and with +1 (ApplyDelta) o's but those o marks Kept. In the same
// pass it reports whether s and o hold the same state — what
// s.StateEquals(o) decides. Arithmetic wraps, so with sign −1 and then +1 it
// undoes itself exactly whatever the values. dst is memory its caller alone
// holds, neither s nor o.
func (s *Snapshot) plus(dst, o *Snapshot, sign int64) (same bool) {
	a, b := s.Cells(), o.Cells()
	if len(dst.cells) != snapshotWords {
		dst.cells = make([]int64, snapshotWords)
	}
	var diff int64
	for i, x := range a {
		diff |= x ^ b[i]
		dst.cells[i] = x + sign*b[i]
	}
	same = diff == 0 && s.Commands == o.Commands && s.NumReads == o.NumReads && s.NumWrites == o.NumWrites &&
		s.ReadBytes == o.ReadBytes && s.WriteBytes == o.WriteBytes && s.Errors == o.Errors
	dst.VM, dst.Disk, dst.Kept = s.VM, s.Disk, 0
	dst.Commands, dst.NumReads, dst.NumWrites = s.Commands+sign*o.Commands, s.NumReads+sign*o.NumReads, s.NumWrites+sign*o.NumWrites
	dst.ReadBytes, dst.WriteBytes, dst.Errors = s.ReadBytes+sign*o.ReadBytes, s.WriteBytes+sign*o.WriteBytes, s.Errors+sign*o.Errors
	for i := range cellTable {
		ext := cellTable[i].Off + cellTable[i].Layout.NumBins() + 2 // min, then max
		for k, c := range [2]int{ext, ext + 1} {
			if dst.cells[c] = a[c]; sign < 0 && a[c] == b[c] {
				dst.Kept |= 1 << (2*i + k)
			} else if sign > 0 && o.Kept>>(2*i+k)&1 == 0 {
				dst.cells[c] = b[c]
			}
		}
	}
	return same
}

// Sub returns the interval snapshot s minus earlier: every counter and every
// count, sum and total cell becomes the delta accumulated between the two
// snapshots. Min and max cannot be recovered for an interval, so the result
// carries s's, and marks those equal to earlier's Kept. A nil earlier means
// "since the beginning": the interval is everything s ever accumulated, so s
// itself is returned (snapshots are immutable, sharing is safe).
func (s *Snapshot) Sub(earlier *Snapshot) *Snapshot {
	if earlier == nil {
		return s
	}
	out := new(Snapshot)
	s.plus(out, earlier, -1)
	return out
}

// SubInto writes s.Sub(earlier) into dst, reusing its cells, and reports
// s.StateEquals(earlier), both in one pass over the cells. earlier is not
// nil, and dst is neither s nor earlier but memory its caller alone holds.
func (s *Snapshot) SubInto(dst, earlier *Snapshot) (same bool) {
	return s.plus(dst, earlier, -1)
}

// KeptWhole marks in Kept a delta read without its base from a whole body,
// whose class-all extrema are its own however Derived its placeholders look.
const KeptWhole = 1 << 32

// ApplyDelta returns the snapshot equal to s plus the interval delta d (as
// produced by Sub): counters and cells add, and min and max come from the
// delta, which carries the later snapshot's, but those it marks Kept from
// s; a Derived d's class-all extrema then derive from those (unless
// KeptWhole). So for any two snapshots
//
//	later == earlier.ApplyDelta(later.Sub(earlier))
//
// cell for cell. The receiver and the delta are left untouched. This is the
// aggregator side of the fleet delta-push protocol.
func (s *Snapshot) ApplyDelta(d *Snapshot) *Snapshot {
	out := new(Snapshot)
	s.plus(out, d, 1)
	if d.Kept != 0 && d.Kept&KeptWhole == 0 && d.Derived() { // from d's totals and the extrema now filled
		dc := d.Cells()
		for f := range families {
			all, r, w := cellTable[3*f].Of(out.cells), cellTable[3*f+1].Of(out.cells), cellTable[3*f+2].Of(out.cells)
			n := len(all) - 4
			all[n+2], all[n+3] = AllExtrema([]int64{cellTable[3*f+1].Of(dc)[n+1], r[n+2], r[n+3]}, []int64{cellTable[3*f+2].Of(dc)[n+1], w[n+2], w[n+3]})
		}
	}
	return out
}

// StateEquals reports whether two snapshots carry identical observed state:
// every counter and every cell. Names (VM/Disk) are not compared — rollups
// rename. A fleet agent uses this to omit unchanged disks from delta pushes,
// so it must be exact, not approximate: if StateEquals holds, replaying
// nothing reconstructs o from s.
func (s *Snapshot) StateEquals(o *Snapshot) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.Commands == o.Commands && s.NumReads == o.NumReads && s.NumWrites == o.NumWrites &&
		s.ReadBytes == o.ReadBytes && s.WriteBytes == o.WriteBytes && s.Errors == o.Errors &&
		slices.Equal(s.Cells(), o.Cells())
}

// ErrLayout marks a JSON snapshot that cannot be held as cells: a histogram
// is missing, or its bins are not this binary's.
var ErrLayout = errors.New("core: snapshot histogram is missing or in another bin layout")

// snapshotJSON is a snapshot's JSON form, the shape the fields had when a
// snapshot was sixteen histogram objects.
type snapshotJSON struct {
	VM, Disk     string
	IOLength     [3]*histogram.Snapshot
	SeekDistance [3]*histogram.Snapshot
	Windowed     *histogram.Snapshot `json:"SeekWindowed"`
	Outstanding  [3]*histogram.Snapshot
	Latency      [3]*histogram.Snapshot
	Interarrival [3]*histogram.Snapshot
	Commands     int64
	NumReads     int64
	NumWrites    int64
	ReadBytes    int64
	WriteBytes   int64
	Errors       int64
}

// hists returns where the JSON form keeps each histogram, in cell-table
// order.
func (j *snapshotJSON) hists() (out [numHistograms]**histogram.Snapshot) {
	fams := [...]*[3]*histogram.Snapshot{&j.IOLength, &j.SeekDistance, &j.Outstanding, &j.Latency, &j.Interarrival}
	for f, fam := range fams {
		for cl := range fam {
			out[3*f+cl] = &fam[cl]
		}
	}
	out[numHistograms-1] = &j.Windowed
	return out
}

// jsonForm returns the snapshot's JSON form, its histograms as views.
func (s *Snapshot) jsonForm() *snapshotJSON {
	j := &snapshotJSON{
		VM: s.VM, Disk: s.Disk,
		Commands: s.Commands, NumReads: s.NumReads, NumWrites: s.NumWrites,
		ReadBytes: s.ReadBytes, WriteBytes: s.WriteBytes, Errors: s.Errors,
	}
	cells := s.Cells()
	for k, slot := range j.hists() {
		*slot = cellTable[k].view(cells)
	}
	return j
}

// MarshalJSON renders the snapshot with every histogram written out in full
// (name, unit, edges, counts, total, sum, min, max).
func (s Snapshot) MarshalJSON() ([]byte, error) { return json.Marshal(s.jsonForm()) }

// UnmarshalJSON reads the form MarshalJSON writes. A histogram that is
// absent or not in this binary's bin layout fails with ErrLayout: there is
// no snapshot that cannot be merged.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var j snapshotJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	out := Snapshot{
		VM: j.VM, Disk: j.Disk,
		Commands: j.Commands, NumReads: j.NumReads, NumWrites: j.NumWrites,
		ReadBytes: j.ReadBytes, WriteBytes: j.WriteBytes, Errors: j.Errors,
		cells: make([]int64, snapshotWords),
	}
	for k, slot := range j.hists() {
		h, got := &cellTable[k], *slot
		if !h.Layout.Fits(got) {
			return fmt.Errorf("%w: %s/%s %s[%s]", ErrLayout, j.VM, j.Disk, h.Metric, h.Class)
		}
		dst := h.Of(out.cells)
		n := copy(dst, got.Counts)
		dst[n], dst[n+1], dst[n+2], dst[n+3] = got.Sum, got.Total, got.Min, got.Max
	}
	*s = out
	return nil
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
