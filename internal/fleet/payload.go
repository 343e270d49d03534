package fleet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"unsafe"

	"vscsistats/internal/core"
)

// The binary payload of a generation-7 frame (frame flag flagKept):
//
//	payload  := layoutID(8 B, big-endian)  snapshot × header.Count
//	snapshot := name(VM) name(Disk) uvarint(flags) body
//	name     := uvarint(shared) str(suffix)
//	body     := zz(Errors) hist × 11             if flags has snapDerived
//	          | zz × 6 (Commands, NumReads, NumWrites, ReadBytes, WriteBytes,
//	            Errors)  hist × 16 (full)         otherwise
//	hist     := [zz(Total − Σcounts)] zz(Sum) uvarint(nnz<<2 | kept)
//	            [zz(Min)] [zz(Max)] { uvarint(gap) zz(count) } × nnz
//	str      := uvarint(len) bytes
//	zz       := zig-zag varint (encoding/binary's Varint)
//
// The 16 histograms come in a fixed order: ioLength, seekDistance,
// outstandingIOs, latency, interarrival, each as all, reads, writes; then
// the windowed seek distance. Bins are sparse: nnz non-zero bins, each
// located by the count of zero bins skipped since the previous one. In a
// delta, bit 0 of kept marks a min and bit 1 a max equal to the base disk's
// (core.Snapshot.Kept), which is then not written; a full frame that sets
// one is a bad frame.
//
// Snapshots come in strictly increasing (VM, disk) order, byte-wise, so a
// frame names each disk at most once; a frame out of that order is a bad
// frame. A name shares a prefix with the previous snapshot's. A
// core.Snapshot that is Derived, as captures, deltas and merges are, leaves
// out what a capture derives. Any other is whole: class-all bins and Sum as
// the residual against reads + writes, every Total against its bins, which
// wraps and so is exact for any input.
//
// Names, units and edges never travel: layoutID is a hash of this binary's
// (see layout below), and the decoder adds the numbers onto a snapshot's
// cells, whose layout core fixes (core.CellTable, which is in payload
// order). A frame whose layoutID is not ours is an UnknownLayoutError, not
// a bad frame.

const snapDerived = 1 // the snapshot flag of the derived body

// wireLayout is what the codec knows about a snapshot's cells.
type wireLayout struct {
	id uint64
	// hists is core's cell table: where each payload histogram's cells are.
	hists []core.HistCells
	// zeros stands in for reads and writes when encoding a histogram that
	// is not a class-all residual.
	zeros []int64
	// minBytes is the smallest encoded snapshot, a derived delta: two empty
	// names, flags, errors and two bytes per empty histogram whose extrema
	// are kept. It bounds header.Count by the payload's size before anything
	// is allocated, and decodedBytes, one decoded snapshot's memory, bounds
	// what the count may decode to. extrema lists every min and max cell;
	// recWords is the length of a staged snapshot's record (staging).
	minBytes, decodedBytes int
	extrema                []int32
	recWords               int
}

var layout = func() *wireLayout {
	l := &wireLayout{hists: core.CellTable()}
	empty := &core.Snapshot{}
	h := fnv.New64a()
	var word [8]byte
	for _, hc := range l.hists {
		n := hc.Layout.NumBins()
		l.extrema = append(l.extrema, int32(hc.Off+n+2), int32(hc.Off+n+3))
		r := empty.Histogram(hc.Metric, hc.Class)
		h.Write([]byte(r.Name + "\x00" + r.Unit + "\x00"))
		for _, e := range r.Edges {
			binary.BigEndian.PutUint64(word[:], uint64(e))
			h.Write(word[:])
		}
		h.Write([]byte{0xff}) // edge lists of different lengths never collide by concatenation
	}
	l.id = h.Sum64()
	l.zeros = empty.Cells()
	l.minBytes = 4 + 1 + 1 + 2*(len(l.hists)-5)
	l.decodedBytes = int(unsafe.Sizeof(*empty)) + 8*len(l.zeros)
	l.recWords = 3 + 6 + len(l.extrema)
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

// appendPayload renders snaps as a compact payload onto dst: a derived
// snapshot's errors and the histograms that are not class-all, any other
// whole, and in a delta without its Kept extrema. Any snapshot can be
// rendered; only a null one is an error.
func appendPayload(dst []byte, snaps []*core.Snapshot, delta bool) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, layout.id)
	var prevVM, prevDisk string
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("fleet: snapshot %d is null", i)
		}
		dst = appendName(appendName(dst, prevVM, s.VM), prevDisk, s.Disk)
		prevVM, prevDisk = s.VM, s.Disk
		flags, derived := byte(0), s.Derived() && s.Kept&core.KeptWhole == 0
		if derived {
			flags = snapDerived
		}
		dst = append(dst, flags)
		for _, c := range []int64{s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes, s.Errors}[5*flags:] {
			dst = binary.AppendVarint(dst, c)
		}
		cells, kept := s.Cells(), uint64(0)
		if delta {
			kept = s.Kept
		}
		for k := range layout.hists {
			r, w := layout.zeros, layout.zeros
			if isAll(&layout.hists[k]) {
				if derived {
					continue
				}
				r, w = layout.hists[k+1].Of(cells), layout.hists[k+2].Of(cells)
			}
			dst = appendHist(dst, layout.hists[k].Of(cells), r, w, !derived, kept>>(2*k)&3)
		}
	}
	return dst, nil
}

// appendStr renders a length-prefixed string.
func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendName renders s front-coded against prev.
func appendName(dst []byte, prev, s string) []byte {
	n := 0
	for n < len(prev) && n < len(s) && prev[n] == s[n] {
		n++
	}
	return appendStr(binary.AppendUvarint(dst, uint64(n)), s[n:])
}

// appendHist renders one histogram's cells (bins, sum, total, min, max),
// its bins and sum travelling as h − r − w, its total, if withTotal, as the
// residual against its bins, and its extrema but the kept ones.
func appendHist(dst []byte, h, r, w []int64, withTotal bool, kept uint64) []byte {
	n := len(h) - 4
	var total int64
	nnz := 0
	for i, c := range h[:n] {
		total += c
		if c-r[i]-w[i] != 0 {
			nnz++
		}
	}
	if withTotal {
		dst = binary.AppendVarint(dst, h[n+1]-total)
	}
	dst = binary.AppendVarint(dst, h[n]-r[n]-w[n])
	dst = binary.AppendUvarint(dst, uint64(nnz<<2)|uint64(kept))
	for e := range 2 {
		if kept>>e&1 == 0 {
			dst = binary.AppendVarint(dst, h[n+2+e])
		}
	}
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
// first failure sticks. Only a delta's payload may keep extrema.
type payloadReader struct {
	buf   []byte
	off   int
	err   error
	delta bool
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

// name reads a front-coded name over prev, the previous one, in its memory,
// and returns how the new name compares to it (bytes.Compare).
func (p *payloadReader) name(prev *[]byte) (order int) {
	if shared, suffix := p.uvarint(), p.bytes(); shared <= uint64(len(*prev)) {
		order = bytes.Compare(suffix, (*prev)[shared:]) // before the new name overwrites prev
		*prev = append((*prev)[:shared], suffix...)
		return order
	}
	p.fail("name shares more than the previous one holds")
	return 0
}

// An op adds val onto cell (core.CellTable) of the snapshot being decoded,
// and onto the class-all cell all as well unless that is the same cell.
type op struct {
	val       int64
	cell, all int32
}

// stage stages an op unless it adds nothing.
func (st *staging) stage(cell, all int, v int64) {
	if v != 0 {
		st.ops = append(st.ops, op{val: v, cell: int32(cell), all: int32(all)})
	}
}

// hist reads one histogram: its bins, sum and total as ops, folded onto
// class-all at cell all if it is a reads or writes one (else all is its
// own), and its min and max into ext, a kept one from the cells from.
// Without withTotal the total is the sum of the bins. It returns total, sum
// and the kept bits.
func (p *payloadReader) hist(st *staging, h *core.HistCells, all int, withTotal bool, ext, from []int64) (total, sum int64, kept uint64) {
	n := h.Layout.NumBins()
	var resid int64
	if withTotal {
		resid = p.varint()
	}
	sum = p.varint()
	nnz := p.uvarint()
	if nnz, kept = nnz>>2, nnz&3; nnz > uint64(n) {
		p.fail("more non-zero bins than bins")
		return 0, 0, 0
	}
	if kept != 0 && !p.delta {
		p.fail("extrema kept in a full frame")
		return 0, 0, 0
	}
	for e := range 2 {
		if kept>>e&1 == 0 {
			ext[e] = p.varint()
		} else {
			ext[e] = from[h.Off+n+2+e]
		}
	}
	for next := 0; nnz > 0; nnz-- { // next is the lowest bin the entry may name
		var gap uint64
		var c int64
		if b := p.buf[p.off:]; len(b) > 1 && b[0]|b[1] < 0x80 { // a byte each, as most entries are: read without a call
			gap, c, p.off = uint64(b[0]), int64(b[1]>>1)^-int64(b[1]&1), p.off+2
		} else {
			gap, c = p.uvarint(), p.varint()
		}
		if gap >= uint64(n-next) {
			p.fail("bin index out of range")
			return 0, 0, 0
		}
		i := next + int(gap)
		st.stage(h.Off+i, all+i, c)
		total, next = total+c, i+1
	}
	st.stage(h.Off+n, all+n, sum)
	st.stage(h.Off+n+1, all+n+1, total)
	st.stage(h.Off+n+1, h.Off+n+1, resid)
	return total + resid, sum, kept
}

// snapshot reads one snapshot's flags and body: ops, and its counters and
// extrema into rec, a kept one from the cells from (see hist). A whole one
// carries every histogram, class-all as the residual its reads and writes
// fold into. A derived one carries no class-all: the folds make it but its
// extrema, which core.AllExtrema derives once the kept ones are filled in,
// as I/O length derives the counters but Errors. It returns the Kept mask.
func (p *payloadReader) snapshot(st *staging, rec, from []int64) (mask uint64) {
	flags := p.uvarint()
	if flags > snapDerived {
		p.fail("unknown snapshot flags")
		return 0
	}
	derived := flags == snapDerived
	counters, ext := rec[:6], rec[6:]
	for k := 5 * flags; k < 6; k++ { // a derived snapshot carries its errors only
		counters[k] = p.varint()
	}
	var reads [3]int64 // the family's reads histogram's total, min and max
	for k := range layout.hists {
		h := &layout.hists[k]
		if derived && isAll(h) {
			continue
		}
		total, sum, kept := p.hist(st, h, layout.hists[k-int(h.Class)].Off, !derived, ext[2*k:], from)
		if mask |= kept << (2 * k); !derived || h.Class == core.All {
			continue
		}
		if tmm := [3]int64{total, ext[2*k], ext[2*k+1]}; h.Class == core.Reads {
			reads = tmm
		} else {
			ext[2*k-4], ext[2*k-3] = core.AllExtrema(reads[:], tmm[:])
		}
		if h.Metric == core.MetricIOLength { // Commands, NumReads or NumWrites, ReadBytes or WriteBytes
			counters[0] += total
			counters[h.Class] += total
			counters[h.Class+2] += sum
		}
	}
	if !derived && mask != 0 {
		mask |= core.KeptWhole
	}
	return mask
}

// decodePayload parses the count snapshots of a compact payload (after its
// layout id) in one pass into staging, and applies it only if it is all
// well formed, so an error changes no snapshot. With a nil base they land
// on zeros (core.MakeWritable), a delta's with its Kept marks and zeros in
// the kept cells. With a base each is a delta onto its base disk, its kept
// extrema the base's, exactly core.ApplyDelta, unless it names a disk the
// base lacks (ResyncUnknownDisk). An owned base (chainPos) is added onto in
// place; of a shared one, each named disk is copied first. Disks come in
// (VM, disk) order, a base's too, so one forward scan finds a delta's, and
// a delta stages at most a record and a snapshot's ops per base disk: after
// an unknown disk the rest is only read. Names and staging count against
// maxDecodedLen too, as front-coding repeats a name for free and an op is
// 16 bytes of a 2-byte bin entry.
func decodePayload(payload []byte, count int, delta bool, base []*core.Snapshot, owned bool) ([]*core.Snapshot, error) {
	p := payloadReader{buf: payload, delta: delta}
	if count < 0 || count > len(p.buf)/layout.minBytes {
		return nil, badFrame("header count %d cannot fit a %d-byte payload", count, len(payload))
	}
	budget := maxDecodedLen - count*layout.decodedBytes
	if budget < 0 {
		return nil, badFrame("header count %d decodes past the limit of %d bytes", count, maxDecodedLen)
	}
	var out []*core.Snapshot // nil for an empty full batch, as the encoder was handed
	if base == nil && count > 0 {
		out = make([]*core.Snapshot, count)
		core.MakeWritable(out)
	}
	st := stagingPool.Get().(*staging)
	defer stagingPool.Put(st)
	st.vals, st.ops, st.vm, st.disk = st.vals[:0], st.ops[:0], st.vm[:0], st.disk[:0] // the first names share with ""
	// A delta's ops, its disks' and one more snapshot's at most, are reserved at once.
	if n := min((min(count, len(base))+1)*(len(layout.zeros)-len(layout.hists)), len(payload)/2+16*count); base != nil && cap(st.ops) < n {
		st.ops = make([]op, 0, n)
	}
	next, unknown := 0, error(nil) // next is the first base disk a delta's next disk may be
	for j := range count {
		if vm, disk := p.name(&st.vm), p.name(&st.disk); j > 0 && cmp.Or(vm, disk) <= 0 {
			p.fail("disk not after the one before it in (VM, disk) order")
		}
		budget -= len(st.vm) + len(st.disk)
		i, from := j, layout.zeros // where a delta's kept extrema come from
		if base == nil {
			out[j].VM, out[j].Disk = string(st.vm), string(st.disk)
		} else if unknown == nil {
			for next < len(base) && (base[next].VM != string(st.vm) || base[next].Disk != string(st.disk)) {
				next++
			}
			if i, next = next, next+1; i == len(base) { // read on: a malformed payload is a bad frame first
				unknown = resyncErr(ResyncUnknownDisk, "delta for disk %s/%s with no base state", st.vm, st.disk)
			} else {
				from = base[i].Cells()
			}
		}
		r, ops := len(st.vals), len(st.ops)
		st.vals = append(st.vals, make([]int64, layout.recWords)...)
		kept := p.snapshot(st, st.vals[r+3:], from)
		if p.err != nil {
			return nil, p.err
		}
		if unknown != nil { // refused whatever follows
			st.vals, st.ops = st.vals[:r], st.ops[:ops]
		} else if st.vals[r], st.vals[r+1] = int64(i), int64(len(st.ops)); base == nil {
			st.vals[r+2] = int64(kept) // a delta without its base keeps its marks
		}
		if budget < len(st.ops)*int(unsafe.Sizeof(op{}))+8*len(st.vals) {
			return nil, badFrame("names and staging decode past the limit of %d bytes", maxDecodedLen)
		}
	}
	if p.off != len(p.buf) {
		return nil, badFrame("binary payload: %d trailing bytes", len(p.buf)-p.off)
	}
	if unknown != nil {
		return nil, unknown
	}
	shared := base != nil && !owned
	if base != nil {
		if out = base; shared {
			out = slices.Clone(base)
		}
	}
	ops := 0
	for r := 0; r < len(st.vals); r += layout.recWords {
		v, at := st.vals[r:r+layout.recWords], int(st.vals[r])
		if shared { // a shared disk's copy; each disk has one record
			core.MakeWritable(out[at : at+1])
		}
		s, cells := out[at], out[at].Cells()
		s.Kept, s.Commands, s.NumReads, s.NumWrites = uint64(v[2]), s.Commands+v[3], s.NumReads+v[4], s.NumWrites+v[5]
		s.ReadBytes, s.WriteBytes, s.Errors = s.ReadBytes+v[6], s.WriteBytes+v[7], s.Errors+v[8]
		for k, c := range layout.extrema { // a delta's extrema replace its base's
			cells[c] = v[9+k]
		}
		for _, o := range st.ops[ops:v[1]] {
			if cells[o.cell] += o.val; o.all != o.cell {
				cells[o.all] += o.val
			}
		}
		ops = int(v[1])
	}
	return out, nil
}

// staging is the parse phase's memory, pooled across decodes: the ops, and
// per snapshot recorded recWords vals — the snapshot it lands on, the end
// of its ops, its Kept mask, its counters (payload order) and extrema
// (layout.extrema's).
type staging struct {
	vals     []int64
	ops      []op
	vm, disk []byte // the previous front-coded names
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}
