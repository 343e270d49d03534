package histogram

import (
	"encoding/binary"
	"math/bits"
	"sort"
	"sync"
)

// Bin lookup tables. The paper's bin layouts are fixed at build time and
// deliberately irregular (4095 and 4096 are distinct edges), so the per-insert
// binary search over them is pure overhead: the same mapping can be
// precomputed once per edge set and answered with one or two array loads.
//
// The table is two-level:
//
//   - an exact small-value table answers |v| < lutSmallSpan directly — one
//     bounds check plus one byte load. This covers the outstanding-I/Os bins
//     entirely and the hot low end of the latency, inter-arrival and seek
//     histograms (sequential streams cluster at seek distances 0–2).
//   - a log₂-indexed coarse table answers everything else: bits.Len64 of the
//     magnitude selects an entry holding the bin of the range's smallest
//     value plus the (at most two or three, for the paper's layouts) edges
//     that fall inside the range, scanned linearly.
//
// Layouts with more than 255 bins fall back to binary search (lutFor returns
// nil); uint8 bin indices keep the small tables one cache line per 64 values.
//
// LUTs are immutable and cached per edge set, so every Layout over one edge
// set shares one table and construction stays off the fast path.

// lutSmallSpan is the exact-table coverage: values in (-lutSmallSpan,
// lutSmallSpan) resolve with a single indexed load.
const lutSmallSpan = 1024

// binLUT answers "which bin does v land in" for one fixed edge set.
type binLUT struct {
	// smallPos[v] is the bin for v in [0, lutSmallSpan).
	smallPos []uint8
	// smallNeg[i] is the bin for v = -1-i, i in [0, lutSmallSpan).
	smallNeg []uint8
	// pos[k] covers positive v with bits.Len64(v) == k; neg[k] covers
	// negative v with bits.Len64(-v) == k (k == 64 is MinInt64 alone).
	pos [64]lutRange
	neg [65]lutRange
}

// lutRange is one coarse entry: the bin of the range's smallest value and
// the edges inside the range, in ascending order. For v in the range, the
// bin is first plus the number of in-range edges smaller than v.
type lutRange struct {
	first uint8
	split []int64
}

func (c *lutRange) find(v int64) int {
	b := int(c.first)
	for _, e := range c.split {
		if v <= e {
			return b
		}
		b++
	}
	return b
}

// lookup returns the bin index for v: the first edge >= v, or len(edges) for
// values beyond every edge. It is exactly equivalent to the binary search it
// replaces (pinned by TestLUTMatchesBinarySearch).
func (l *binLUT) lookup(v int64) int {
	if v >= 0 {
		if v < lutSmallSpan {
			return int(l.smallPos[v])
		}
		return l.pos[bits.Len64(uint64(v))].find(v)
	}
	if i := int64(-1) - v; i < lutSmallSpan {
		return int(l.smallNeg[i])
	}
	return l.neg[bits.Len64(-uint64(v))].find(v)
}

// newBinLUT precomputes the table for one edge set, or returns nil when the
// layout has too many bins for uint8 indices.
func newBinLUT(edges []int64) *binLUT {
	if len(edges) >= 255 {
		return nil
	}
	search := func(v int64) uint8 {
		return uint8(sort.Search(len(edges), func(i int) bool { return edges[i] >= v }))
	}
	// edgesIn collects the edges in [lo, hi), the points where the bin
	// changes inside a coarse range whose values span [lo, hi].
	edgesIn := func(lo, hi int64) []int64 {
		var out []int64
		for _, e := range edges {
			if e >= lo && e < hi {
				out = append(out, e)
			}
		}
		return out
	}
	l := &binLUT{
		smallPos: make([]uint8, lutSmallSpan),
		smallNeg: make([]uint8, lutSmallSpan),
	}
	for i := range l.smallPos {
		l.smallPos[i] = search(int64(i))
		l.smallNeg[i] = search(int64(-1 - i))
	}
	l.pos[0] = lutRange{first: search(0)}
	l.neg[0] = lutRange{first: search(0)}
	for k := 1; k <= 63; k++ {
		lo := int64(1) << (k - 1)
		hi := (lo - 1) + lo // k = 63: 2^63-1 = MaxInt64, no overflow
		l.pos[k] = lutRange{first: search(lo), split: edgesIn(lo, hi)}
		nlo, nhi := -hi, -lo
		l.neg[k] = lutRange{first: search(nlo), split: edgesIn(nlo, nhi)}
	}
	// bits.Len64(-MinInt64 as uint64) == 64; the range is that one value.
	l.neg[64] = lutRange{first: 0}
	return l
}

// lutCache shares one immutable LUT per distinct edge set.
var lutCache sync.Map // string(edge bytes) -> *binLUT

func lutFor(edges []int64) *binLUT {
	key := make([]byte, 8*len(edges))
	for i, e := range edges {
		binary.LittleEndian.PutUint64(key[8*i:], uint64(e))
	}
	if v, ok := lutCache.Load(string(key)); ok {
		return v.(*binLUT)
	}
	l := newBinLUT(edges)
	if l == nil {
		return nil
	}
	v, _ := lutCache.LoadOrStore(string(key), l)
	return v.(*binLUT)
}
