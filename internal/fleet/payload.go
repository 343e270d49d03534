package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"unsafe"

	"vscsistats/internal/core"
)

// The binary payload (frame flag flagBinary), uncompressed:
//
//	payload  := layoutID(8 B, big-endian)  snapshot × header.Count
//	snapshot := str(VM) str(Disk)  zz × 6 (Commands, NumReads, NumWrites,
//	            ReadBytes, WriteBytes, Errors)  hist × 16
//	hist     := zz(Total − Σcounts) zz(Sum) zz(Min) zz(Max)
//	            uvarint(nnz) { uvarint(gap) zz(count) } × nnz
//	str      := uvarint(len) bytes
//	zz       := zig-zag varint (encoding/binary's Varint)
//
// The 16 histograms come in a fixed order: ioLength, seekDistance,
// outstandingIOs, latency, interarrival, each as all, reads, writes; then
// the windowed seek distance. Bins are sparse: nnz non-zero bins, each
// located by the count of zero bins skipped since the previous one. A
// class-all histogram carries its bins and Sum as the residual against
// reads + writes of the same metric — the collector keeps all == reads +
// writes, so the residual is almost always empty, and because every
// subtraction and addition wraps in two's complement the reconstruction
// is exact for any input, including a torn snapshot where the identity
// does not hold. Total is the residual against the histogram's own bins
// for the same reason.
//
// Names, units and edges never travel: layoutID is a hash of this binary's
// (see layout below), and the decoder writes the numbers straight into a
// snapshot's cells, whose layout core fixes (core.CellTable, which is in
// payload order). A frame whose layoutID is not ours is an
// UnknownLayoutError, not a bad frame.

// wireLayout is what the codec knows about a snapshot's cells.
type wireLayout struct {
	id uint64
	// hists is core's cell table: where each payload histogram's cells are.
	hists []core.HistCells
	// zeros stands in for reads and writes when encoding a histogram that
	// is not a class-all residual.
	zeros []int64
	// minBytes is the smallest encoded snapshot: two empty names, six
	// one-byte counters and five bytes per empty histogram. It bounds
	// header.Count by the payload's size before anything is allocated.
	minBytes int
	// decodedBytes is what one decoded snapshot costs in memory.
	decodedBytes int
}

var layout = func() *wireLayout {
	l := &wireLayout{hists: core.CellTable()}
	empty := &core.Snapshot{}
	h := fnv.New64a()
	var word [8]byte
	for _, hc := range l.hists {
		r := empty.Histogram(hc.Metric, hc.Class)
		h.Write([]byte(r.Name))
		h.Write([]byte{0})
		h.Write([]byte(r.Unit))
		h.Write([]byte{0})
		for _, e := range r.Edges {
			binary.BigEndian.PutUint64(word[:], uint64(e))
			h.Write(word[:])
		}
		h.Write([]byte{0xff}) // edge lists of different lengths never collide by concatenation
	}
	l.id = h.Sum64()
	l.zeros = empty.Cells()
	l.minBytes = 2 + 6 + 5*len(l.hists)
	l.decodedBytes = int(unsafe.Sizeof(*empty)) + 8*len(l.zeros)
	return l
}()

// isAll reports whether a payload histogram is a class-all one, which
// travels as a residual against the reads and writes after it.
func isAll(h *core.HistCells) bool {
	return h.Class == core.All && h.Metric != core.MetricSeekWindowed
}

// UnknownLayoutError reports a well-formed frame whose histograms were laid
// out by a different binary generation: its payload's layoutID is not the
// hash of this binary's layout, so the bins cannot be read. It deliberately
// does not match ErrBadFrame — the bytes are not wrong, they are not ours.
// Push ingest treats it like a batch that fails Validate (a delta gets a
// layout-mismatch resync) and log replay skips the frame.
type UnknownLayoutError struct {
	// Header is the frame's batch with everything but the snapshots.
	Header *Batch
	// LayoutID is the payload's.
	LayoutID uint64
}

func (e *UnknownLayoutError) Error() string {
	return fmt.Sprintf("fleet: frame layout %#016x is not this binary's %#016x", e.LayoutID, layout.id)
}

// appendPayload renders snaps as a binary payload onto dst. Any snapshot can
// be rendered; only a null one is an error.
func appendPayload(dst []byte, snaps []*core.Snapshot) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, layout.id)
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("fleet: snapshot %d is null", i)
		}
		dst = appendStr(appendStr(dst, s.VM), s.Disk)
		for _, c := range [...]int64{s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes, s.Errors} {
			dst = binary.AppendVarint(dst, c)
		}
		cells := s.Cells()
		for k := range layout.hists {
			h := layout.hists[k].Of(cells)
			r, w := layout.zeros[:len(h)], layout.zeros[:len(h)]
			if isAll(&layout.hists[k]) {
				r, w = layout.hists[k+1].Of(cells), layout.hists[k+2].Of(cells)
			}
			dst = appendHist(dst, h, r, w)
		}
	}
	return dst, nil
}

// appendStr renders a length-prefixed string.
func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendHist renders one histogram's cells (bins, sum, total, min, max),
// its bins and sum travelling as h − r − w.
func appendHist(dst []byte, h, r, w []int64) []byte {
	n := len(h) - 4
	var total int64
	nnz := 0
	for i, c := range h[:n] {
		total += c
		if c-r[i]-w[i] != 0 {
			nnz++
		}
	}
	dst = binary.AppendVarint(dst, h[n+1]-total)
	dst = binary.AppendVarint(dst, h[n]-r[n]-w[n])
	dst = binary.AppendVarint(dst, h[n+2])
	dst = binary.AppendVarint(dst, h[n+3])
	dst = binary.AppendUvarint(dst, uint64(nnz))
	prev := -1
	for i, c := range h[:n] {
		if d := c - r[i] - w[i]; d != 0 {
			dst = binary.AppendUvarint(dst, uint64(i-prev-1))
			dst = binary.AppendVarint(dst, d)
			prev = i
		}
	}
	return dst
}

// payloadReader walks a binary header or payload by offset, so a read
// writes an integer, never a pointer; every read is bounds-checked and the
// first failure sticks.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (p *payloadReader) fail(what string) {
	if p.err == nil {
		p.err = badFrame("binary field: %s %d bytes before the end", what, len(p.buf)-p.off)
	}
	p.off = len(p.buf)
}

// uvarint reads a one-byte value, which most counts and gaps are, without
// the call into encoding/binary.
func (p *payloadReader) uvarint() uint64 {
	if p.off < len(p.buf) && p.buf[p.off] < 0x80 {
		p.off++
		return uint64(p.buf[p.off-1])
	}
	v, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		p.fail("bad varint")
		return 0
	}
	p.off += n
	return v
}

// varint reads a zig-zag varint, as encoding/binary's Varint does.
func (p *payloadReader) varint() int64 {
	v := p.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

// bytes reads a length-prefixed string without copying it.
func (p *payloadReader) bytes() []byte {
	n := p.uvarint()
	if n > uint64(len(p.buf)-p.off) {
		p.fail("string overruns its field")
		return nil
	}
	s := p.buf[p.off : p.off+int(n)]
	p.off += int(n)
	return s
}

// hist reads one histogram and adds it onto its cells h, replacing the
// extrema. A class-all histogram travels as the residual against its reads
// and writes, which follow it, so those fold into all as well (nil if none).
func (p *payloadReader) hist(h, all []int64) {
	n := len(h) - 4
	total, sum := p.varint(), p.varint()
	h[n+2], h[n+3] = p.varint(), p.varint()
	h[n], h[n+1] = h[n]+sum, h[n+1]+total
	if all != nil {
		all[n] += sum
	}
	nnz := p.uvarint()
	if nnz > uint64(n) {
		p.fail("more non-zero bins than bins")
		return
	}
	next := 0 // lowest bin the next entry may name
	for ; nnz > 0; nnz-- {
		gap := p.uvarint()
		if gap >= uint64(n-next) {
			p.fail("bin index out of range")
			return
		}
		i, c := next+int(gap), p.varint()
		h[i], h[n+1] = h[i]+c, h[n+1]+c
		if all != nil {
			all[i], all[n+1] = all[i]+c, all[n+1]+c
		}
		next = i + 1
	}
}

// decodePayload parses the count snapshots of a binary payload, the bytes
// after its layout id. With a nil base they start from zeros, behind
// core.MakeWritable's two allocations. With a base each is a delta
// (Snapshot.Sub): parse stages the whole payload, one snapshot per base disk
// named and one for the disks the base lacks; only if it is well formed and
// names no such disk (ResyncUnknownDisk: the sender built on state we lost)
// does add put each onto its base disk, exactly core.ApplyDelta. An owned
// base (see chainPos) is added onto in place; a shared one is never written,
// its named disks become new snapshots and the rest carry over by reference.
func decodePayload(payload []byte, count int, base []*core.Snapshot, owned bool) ([]*core.Snapshot, error) {
	p := payloadReader{buf: payload}
	if count < 0 || count > len(p.buf)/layout.minBytes {
		return nil, badFrame("header count %d cannot fit a %d-byte payload", count, len(payload))
	}
	if count > maxDecodedLen/layout.decodedBytes {
		return nil, badFrame("header count %d decodes past the limit of %d bytes", count, maxDecodedLen)
	}
	var out []*core.Snapshot // nil for an empty full batch, as the encoder was handed
	if base == nil && count > 0 {
		out = make([]*core.Snapshot, count)
		core.MakeWritable(out)
	}
	st := stagingPool.Get().(*staging)
	defer stagingPool.Put(st)
	st.delta, st.named = slices.Grow(st.delta[:0], len(base)+1)[:len(base)+1], st.named[:0]
	clear(st.delta)
	var at baseIndex
	var unknown error
	for j := range count {
		vm, disk := p.bytes(), p.bytes()
		var s *core.Snapshot
		if base == nil {
			s = out[j]
			s.VM, s.Disk = string(vm), string(disk)
		} else if i, ok := at.find(base, vm, disk); ok {
			s = st.at(i)
		} else {
			if unknown == nil { // read on: a malformed payload is a bad frame first
				unknown = resyncErr(ResyncUnknownDisk, "delta for disk %s/%s with no base state", vm, disk)
			}
			s = st.at(len(base))
		}
		for _, c := range [...]*int64{&s.Commands, &s.NumReads, &s.NumWrites, &s.ReadBytes, &s.WriteBytes, &s.Errors} {
			*c += p.varint()
		}
		cells := s.Cells()
		var all []int64
		for k := range layout.hists {
			h := layout.hists[k].Of(cells)
			if layout.hists[k].Class != core.All {
				p.hist(h, all) // reads and writes follow their class-all histogram
				continue
			}
			p.hist(h, nil)
			all = h
		}
		if p.err != nil {
			return nil, p.err
		}
	}
	if p.off != len(p.buf) {
		return nil, badFrame("binary payload: %d trailing bytes", len(p.buf)-p.off)
	}
	if unknown != nil {
		return nil, unknown
	}
	if base == nil {
		return out, nil
	}
	if out = base; !owned {
		out = slices.Clone(base)
	}
	for _, i := range st.named {
		if owned {
			out[i].AddDelta(st.delta[i])
		} else {
			out[i] = base[i].ApplyDelta(st.delta[i])
		}
	}
	return out, nil
}

// staging is the parse phase's memory, pooled across decodes.
type staging struct {
	delta []*core.Snapshot // by base disk, then the disks it lacks; nil if not named
	named []int            // the base disks staged, in the order first named
	spare []*core.Snapshot // the snapshots behind delta
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// at returns the staged delta of base disk i, zeroed when i is first named.
func (st *staging) at(i int) *core.Snapshot {
	if st.delta[i] == nil {
		if k := len(st.named); k == len(st.spare) {
			st.spare = append(st.spare, nil)
			core.MakeWritable(st.spare[k:])
		}
		s := st.spare[len(st.named)]
		clear(s.Cells())
		s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes, s.Errors = 0, 0, 0, 0, 0, 0
		st.delta[i], st.named = s, append(st.named, i)
	}
	return st.delta[i]
}

// baseIndex finds a delta's disks in its base. A sender lists them in its
// full frame's order, leaving out the unchanged ones (subAgainst), so find
// scans forward from the previous match: one pass over the base per delta,
// no allocation. A disk out of that order, or in no base, falls back to a
// map built once per delta.
type baseIndex struct {
	next  int
	byKey map[diskKey]int // built on the first out-of-order disk
}

func (x *baseIndex) find(base []*core.Snapshot, vm, disk []byte) (int, bool) {
	if x.byKey == nil {
		for i := x.next; i < len(base); i++ {
			if base[i].VM == string(vm) && base[i].Disk == string(disk) {
				x.next = i + 1
				return i, true
			}
		}
		x.byKey = make(map[diskKey]int, len(base))
		for i, s := range base {
			x.byKey[diskKey{s.VM, s.Disk}] = i
		}
	}
	i, ok := x.byKey[diskKey{string(vm), string(disk)}]
	return i, ok
}
