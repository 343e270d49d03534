package histogram

// Standard bin sets, replicated from the paper's figures. The length bins
// are deliberately irregular: "certain block sizes are really special since
// the underlying storage subsystems may optimize for them" (§4) — 4095 and
// 4096 are distinct bins so that an exactly-4KB I/O is distinguishable from
// anything else in (2KB, 4KB).

// IOLengthEdges are the I/O length bin upper edges in bytes
// (Figures 2–5 (a)/(b): 512 … 524288, overflow ">524288").
func IOLengthEdges() []int64 {
	return []int64{512, 1024, 2048, 4095, 4096, 8191, 8192,
		16383, 16384, 32768, 49152, 65535, 65536,
		81920, 131072, 262144, 524288}
}

// SeekDistanceEdges are the signed seek-distance bin upper edges in sectors
// (Figures 2–5: −500000 … −2, 0, 2 … 500000, overflow ">500000"). The bin
// with upper edge 0 holds repeated accesses to the same block; the bin with
// upper edge 2 holds distances 1–2 and is where sequential streams peak.
func SeekDistanceEdges() []int64 {
	return []int64{-500000, -50000, -5000, -500, -64, -16, -6, -2,
		0, 2, 6, 16, 64, 500, 5000, 50000, 500000}
}

// LatencyEdges are the device latency bin upper edges in microseconds
// (Figures 5(a), 6: 1 … 100000, overflow ">100000").
func LatencyEdges() []int64 {
	return []int64{1, 10, 100, 500, 1000, 5000, 15000, 30000, 50000, 100000}
}

// InterarrivalEdges are the I/O inter-arrival time bin upper edges in
// microseconds (§3.2; same scale as the latency histogram).
func InterarrivalEdges() []int64 {
	return []int64{1, 10, 100, 500, 1000, 5000, 15000, 30000, 50000, 100000}
}

// OutstandingEdges are the queue-depth-at-arrival bin upper edges
// (Figure 4(c)/(d): 1 … 64, overflow ">64").
func OutstandingEdges() []int64 {
	return []int64{1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 64}
}

// The paper's layouts. A layout is immutable, so every histogram and every
// collector slab over one of these shares its edges and lookup table.
var (
	IOLengthLayout     = NewLayout("bytes", IOLengthEdges())
	SeekDistanceLayout = NewLayout("sectors", SeekDistanceEdges())
	LatencyLayout      = NewLayout("microseconds", LatencyEdges())
	InterarrivalLayout = NewLayout("microseconds", InterarrivalEdges())
	OutstandingLayout  = NewLayout("I/Os", OutstandingEdges())
)

// NewIOLength returns an empty I/O length histogram with the paper's bins.
func NewIOLength(name string) *Histogram { return IOLengthLayout.New(name) }
