package histogram

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Hist2D is a two-dimensional histogram: a grid of counters over two
// independent bin layouts. The paper's §3.6 notes that correlating metrics
// (e.g. seek distance with latency) "is possible using online techniques
// including with the use of 2d histograms" but leaves it to SCSI traces;
// this type implements that extension. Insertion remains O(log mx + log my)
// time and the structure O(mx*my) space, so it is still fast enough for the
// online path.
type Hist2D struct {
	name   string
	xName  string
	yName  string
	xEdges []int64
	yEdges []int64
	cells  []atomic.Int64 // (len(xEdges)+1) * (len(yEdges)+1), row-major by x
	total  atomic.Int64
}

// New2D returns a 2-D histogram over the given edge sets. Both edge slices
// must be strictly increasing and non-empty.
func New2D(name, xName string, xEdges []int64, yName string, yEdges []int64) *Hist2D {
	for _, e := range [][]int64{xEdges, yEdges} {
		if len(e) == 0 {
			panic("histogram: New2D needs at least one edge per axis")
		}
		for i := 1; i < len(e); i++ {
			if e[i] <= e[i-1] {
				panic("histogram: New2D edges not strictly increasing")
			}
		}
	}
	return &Hist2D{
		name:   name,
		xName:  xName,
		yName:  yName,
		xEdges: append([]int64(nil), xEdges...),
		yEdges: append([]int64(nil), yEdges...),
		cells:  make([]atomic.Int64, (len(xEdges)+1)*(len(yEdges)+1)),
	}
}

func binIndex(edges []int64, v int64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert counts one (x, y) sample.
func (h *Hist2D) Insert(x, y int64) {
	xi := binIndex(h.xEdges, x)
	yi := binIndex(h.yEdges, y)
	h.cells[xi*(len(h.yEdges)+1)+yi].Add(1)
	h.total.Add(1)
}

// Total returns the number of samples inserted.
func (h *Hist2D) Total() int64 { return h.total.Load() }

// Snapshot copies the grid into an immutable Snapshot2D.
func (h *Hist2D) Snapshot() *Snapshot2D {
	s := &Snapshot2D{
		Name:   h.name,
		XName:  h.xName,
		YName:  h.yName,
		XEdges: h.xEdges,
		YEdges: h.yEdges,
		Counts: make([][]int64, len(h.xEdges)+1),
		Total:  h.total.Load(),
	}
	ny := len(h.yEdges) + 1
	for xi := range s.Counts {
		row := make([]int64, ny)
		for yi := 0; yi < ny; yi++ {
			row[yi] = h.cells[xi*ny+yi].Load()
		}
		s.Counts[xi] = row
	}
	return s
}

// Snapshot2D is an immutable copy of a Hist2D.
type Snapshot2D struct {
	Name   string    `json:"name"`
	XName  string    `json:"xName"`
	YName  string    `json:"yName"`
	XEdges []int64   `json:"xEdges"`
	YEdges []int64   `json:"yEdges"`
	Counts [][]int64 `json:"counts"` // Counts[xi][yi]
	Total  int64     `json:"total"`
}

func edgeLabel(edges []int64, i int) string {
	if i == len(edges) {
		return fmt.Sprintf(">%d", edges[len(edges)-1])
	}
	return fmt.Sprintf("%d", edges[i])
}

// String renders the grid as a table with X bins as rows.
func (s *Snapshot2D) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s x %s), %d samples\n", s.Name, s.XName, s.YName, s.Total)
	fmt.Fprintf(&b, "%12s", s.XName+`\`+s.YName)
	for yi := range s.YEdges {
		fmt.Fprintf(&b, " %8s", edgeLabel(s.YEdges, yi))
	}
	fmt.Fprintf(&b, " %8s\n", edgeLabel(s.YEdges, len(s.YEdges)))
	for xi, row := range s.Counts {
		fmt.Fprintf(&b, "%12s", edgeLabel(s.XEdges, xi))
		for _, c := range row {
			fmt.Fprintf(&b, " %8d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
