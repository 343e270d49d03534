// Package histogram implements the online histograms at the heart of the
// IISWC 2007 paper "Easy and Efficient Disk I/O Workload Characterization in
// VMware ESX Server".
//
// A histogram has a fixed set of irregular bin upper edges chosen up front
// (a Layout; see bins.go for the paper's standard bin sets) plus an implicit
// overflow bin. Insertion is O(1) — a precomputed lookup table replaces the
// per-insert binary search (lut.go) — so a histogram can sit on the
// hypervisor's per-command fast path: the paper's key claim is that this
// costs O(1) CPU per command and O(m) space total (m bins), versus O(n)
// space for a trace. Histogram is the lock-free form, each bin one atomic
// counter; core.Collector keeps plain cells over the same layouts under its
// own lock.
package histogram

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Layout is the immutable part of a histogram: the sample unit, the bin
// upper edges and the lookup table that maps a sample to its bin. The bin
// for a sample v is the first edge e with v <= e; samples larger than every
// edge land in the overflow bin. A Histogram counts into atomic cells over
// its layout; core.Collector indexes one plain slab with several layouts
// under its own lock. Either way a live histogram's cells are NumBins count
// cells followed by one sum cell; a snapshot's add total, min and max (Seal)
// and are read through View.
type Layout struct {
	unit  string
	edges []int64 // sorted ascending
	lut   *binLUT // nil for layouts the LUT cannot index (binary search)
}

// NewLayout returns the layout with the given bin upper edges. The edges
// must be strictly increasing; NewLayout panics otherwise since bin layout
// is a compile-time decision in this system.
func NewLayout(unit string, edges []int64) *Layout {
	if len(edges) == 0 {
		panic("histogram: need at least one bin edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("histogram: edges not strictly increasing at %d: %d <= %d",
				i, edges[i], edges[i-1]))
		}
	}
	l := &Layout{unit: unit, edges: append([]int64(nil), edges...)}
	l.lut = lutFor(l.edges)
	return l
}

// NumBins returns the number of bins including the overflow bin.
func (l *Layout) NumBins() int { return len(l.edges) + 1 }

// Bin returns the bin a value of v is counted in.
func (l *Layout) Bin(v int64) int {
	if l.lut != nil {
		return l.lut.lookup(v)
	}
	return binIndex(l.edges, v)
}

// View returns the Snapshot of one histogram held as cells: NumBins counts,
// then its sum, total, min and max. It copies nothing — Counts aliases cells,
// which the caller must not write again — and derives nothing: a histogram
// off the wire keeps whatever total and extrema it was sent with.
func (l *Layout) View(name string, cells []int64) *Snapshot {
	n := l.NumBins()
	return &Snapshot{
		Name:   name,
		Unit:   l.unit,
		Edges:  l.edges, // immutable, shared
		Counts: cells[:n:n],
		Sum:    cells[n],
		Total:  cells[n+1],
		Min:    cells[n+2],
		Max:    cells[n+3],
	}
}

// Seal completes a snapshot's cells, counts and sum in place: the total is
// derived from the bins, so it always equals their sum exactly, and the
// extrema are min and max, or zero for an empty histogram.
func (l *Layout) Seal(cells []int64, min, max int64) {
	n := l.NumBins()
	for _, c := range cells[:n] {
		cells[n+1] += c
	}
	if cells[n+1] != 0 {
		cells[n+2], cells[n+3] = min, max
	}
}

// Fits reports whether s is a histogram over this layout — one count per bin
// and the same edges — so that its counts can be taken in as cells.
func (l *Layout) Fits(s *Snapshot) bool {
	return s != nil && len(s.Counts) == l.NumBins() && slices.Equal(s.Edges, l.edges)
}

// Histogram counts int64 samples into the bins of a Layout. Alongside the
// bins it tracks count, sum, min and max so exact means survive binning.
//
// All methods are safe for concurrent use: bins and the running sum are
// atomic adds, and min and max are a conditional CAS only taken when the
// bound actually moves, which after warm-up is almost never.
type Histogram struct {
	name   string
	layout *Layout

	// cells holds the count cells followed by one sum cell. The sample
	// total is derived by summing the count cells, so a snapshot's Total
	// always equals the sum of its bins.
	cells []atomic.Int64

	min atomic.Int64
	max atomic.Int64
}

// New returns a histogram with the given bin upper edges (see NewLayout).
// name and unit are used only for rendering (e.g. "I/O Length", "bytes").
func New(name, unit string, edges []int64) *Histogram {
	return NewLayout(unit, edges).New(name)
}

// New returns an empty histogram over the layout.
func (l *Layout) New(name string) *Histogram {
	h := &Histogram{name: name, layout: l, cells: make([]atomic.Int64, l.NumBins()+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Name returns the display name given at construction.
func (h *Histogram) Name() string { return h.name }

// Unit returns the sample unit given at construction.
func (h *Histogram) Unit() string { return h.layout.unit }

// NumBins returns the number of bins including the overflow bin.
func (h *Histogram) NumBins() int { return h.layout.NumBins() }

// Insert counts one sample: a table lookup plus two atomic adds, and two
// bound checks that CAS only when the sample extends the observed range.
func (h *Histogram) Insert(v int64) {
	h.InsertN(v, 1)
}

// InsertN counts n identical samples.
func (h *Histogram) InsertN(v, n int64) {
	if n <= 0 {
		return
	}
	h.cells[h.layout.Bin(v)].Add(n)
	h.cells[len(h.cells)-1].Add(v * n)
	h.updateBounds(v)
}

// updateBounds widens min/max to admit v. The common case — v inside the
// already-observed range — is two plain loads and no write, so a hot
// histogram's min/max cache lines stay shared instead of bouncing between
// cores on every insert.
func (h *Histogram) updateBounds(v int64) {
	if v < h.min.Load() {
		for {
			cur := h.min.Load()
			if v >= cur || h.min.CompareAndSwap(cur, v) {
				break
			}
		}
	}
	if v > h.max.Load() {
		for {
			cur := h.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// Reset zeroes all bins and summary statistics.
func (h *Histogram) Reset() {
	for i := range h.cells {
		h.cells[i].Store(0)
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// Total returns the number of samples inserted.
func (h *Histogram) Total() int64 {
	var total int64
	for i := range h.cells[:len(h.cells)-1] {
		total += h.cells[i].Load()
	}
	return total
}

// Snapshot copies the cells into an immutable Snapshot. Concurrent inserts
// may straddle the copy; per the paper this tearing is acceptable for
// monitoring (each individual counter is still consistent). Two guarantees
// hold regardless: Total is derived from the copied bins, so it always
// equals their sum exactly; and every cell only ever grows, so between two
// snapshots with no intervening Reset no bin ever goes backwards — the
// property the Prometheus exporter's cumulative buckets rely on across
// scrapes.
func (h *Histogram) Snapshot() *Snapshot {
	min, max := h.min.Load(), h.max.Load()
	cells := make([]int64, len(h.cells)+3) // + total, min, max
	for i := range h.cells {
		cells[i] = h.cells[i].Load()
	}
	h.layout.Seal(cells, min, max)
	return h.layout.View(h.name, cells)
}

// Snapshot is an immutable copy of a histogram's state, suitable for
// rendering, diffing and serialization.
type Snapshot struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Edges  []int64 `json:"edges"`
	Counts []int64 `json:"counts"` // len(Edges)+1; last is the overflow bin
	Total  int64   `json:"total"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Mean returns the exact arithmetic mean of inserted samples (tracked
// alongside the bins, not estimated from them). Zero when empty.
func (s *Snapshot) Mean() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Total)
}

// BinLabel renders bin i's upper edge: the edge value for regular bins and
// ">lastEdge" for the overflow bin, matching the paper's figure axes.
func (s *Snapshot) BinLabel(i int) string {
	if i == len(s.Edges) {
		return fmt.Sprintf(">%d", s.Edges[len(s.Edges)-1])
	}
	return fmt.Sprintf("%d", s.Edges[i])
}

// BinRange describes the half-open interval (lo, hi] covered by bin i. The
// first bin's lo is math.MinInt64 and the overflow bin's hi is
// math.MaxInt64.
func (s *Snapshot) BinRange(i int) (lo, hi int64) {
	lo = math.MinInt64
	if i > 0 {
		lo = s.Edges[i-1]
	}
	hi = int64(math.MaxInt64)
	if i < len(s.Edges) {
		hi = s.Edges[i]
	}
	return lo, hi
}

// Percentile estimates the p-th percentile (p in [0,100]) from the binned
// counts, resolving to a bin upper edge; the true min/max clamp the ends.
// This is an estimate: binning discards intra-bin placement.
func (s *Snapshot) Percentile(p float64) int64 {
	if s.Total == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 100 {
		return s.Max
	}
	rank := int64(math.Ceil(float64(s.Total) * p / 100))
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			if i == len(s.Edges) {
				return s.Max
			}
			e := s.Edges[i]
			if e > s.Max {
				return s.Max
			}
			if e < s.Min {
				return s.Min
			}
			return e
		}
	}
	return s.Max
}

// Clone returns a deep copy.
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.Counts = append([]int64(nil), s.Counts...)
	return &c
}

func (s *Snapshot) mustMatch(o *Snapshot) {
	if len(s.Edges) != len(o.Edges) {
		panic("histogram: bin layout mismatch")
	}
	for i := range s.Edges {
		if s.Edges[i] != o.Edges[i] {
			panic("histogram: bin layout mismatch")
		}
	}
}

// PowerOfTwoEdges returns ascending powers of two covering [lo, hi],
// e.g. PowerOfTwoEdges(512, 4096) = [512 1024 2048 4096].
func PowerOfTwoEdges(lo, hi int64) []int64 {
	var edges []int64
	for v := lo; v <= hi && v > 0; v *= 2 {
		edges = append(edges, v)
	}
	return edges
}
