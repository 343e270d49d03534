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

// The binary payload of a generation-6 frame (frame flag flagCompact):
//
//	payload  := layoutID(8 B, big-endian)  snapshot × header.Count
//	snapshot := name(VM) name(Disk) uvarint(flags) body
//	name     := uvarint(shared) str(suffix)
//	body     := zz(Errors) hist × 11             if flags has snapDerived
//	          | zz × 6 (Commands, NumReads, NumWrites, ReadBytes, WriteBytes,
//	            Errors)  hist × 16 (full)         otherwise
//	hist     := [zz(Total − Σcounts)] zz(Sum) zz(Min) zz(Max)
//	            uvarint(nnz) { uvarint(gap) zz(count) } × nnz
//	str      := uvarint(len) bytes
//	zz       := zig-zag varint (encoding/binary's Varint)
//
// The 16 histograms come in a fixed order: ioLength, seekDistance,
// outstandingIOs, latency, interarrival, each as all, reads, writes; then
// the windowed seek distance. Bins are sparse: nnz non-zero bins, each
// located by the count of zero bins skipped since the previous one.
//
// A name shares a prefix with the previous snapshot's. A core.Snapshot that
// is Derived, as captures, deltas and merges are, leaves out what Derive
// rebuilds. Any other is whole: class-all bins and Sum as the residual
// against reads + writes, every Total against its bins, which wraps and so
// is exact for any input. Generation 5 (up to b2f5a5c) is every snapshot
// whole behind str(VM) str(Disk), with no flags.
//
// Names, units and edges never travel: layoutID is a hash of this binary's
// (see layout below), and the decoder writes the numbers straight into a
// snapshot's cells, whose layout core fixes (core.CellTable, which is in
// payload order). A frame whose layoutID is not ours is an
// UnknownLayoutError, not a bad frame.

const snapDerived = 1 // the snapshot flag of the derived body

// wireLayout is what the codec knows about a snapshot's cells.
type wireLayout struct {
	id uint64
	// hists is core's cell table: where each payload histogram's cells are.
	hists []core.HistCells
	// zeros stands in for reads and writes when encoding a histogram that
	// is not a class-all residual.
	zeros []int64
	// minBytes is the smallest encoded snapshot, a derived one: two empty
	// names, flags, errors and four bytes per empty histogram. It bounds
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
	l.minBytes = 4 + 1 + 1 + 4*(len(l.hists)-5)
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

// appendPayload renders snaps as a compact payload onto dst. Any snapshot can
// be rendered; only a null one is an error.
func appendPayload(dst []byte, snaps []*core.Snapshot) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, layout.id)
	var prevVM, prevDisk string
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("fleet: snapshot %d is null", i)
		}
		dst = appendName(appendName(dst, prevVM, s.VM), prevDisk, s.Disk)
		prevVM, prevDisk = s.VM, s.Disk
		flags := byte(0)
		if s.Derived() {
			flags = snapDerived
		}
		dst = appendBody(append(dst, flags), s, flags)
	}
	return dst, nil
}

// appendBody renders s after its names and flags: if derived, its errors and
// the histograms that are not class-all, else everything.
func appendBody(dst []byte, s *core.Snapshot, flags byte) []byte {
	derived := flags == snapDerived
	for _, c := range []int64{s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes, s.Errors}[5*flags:] {
		dst = binary.AppendVarint(dst, c)
	}
	cells := s.Cells()
	for k := range layout.hists {
		r, w := layout.zeros, layout.zeros
		if isAll(&layout.hists[k]) {
			if derived {
				continue
			}
			r, w = layout.hists[k+1].Of(cells), layout.hists[k+2].Of(cells)
		}
		dst = appendHist(dst, layout.hists[k].Of(cells), r, w, !derived)
	}
	return dst
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
// its bins and sum travelling as h − r − w and its total, if withTotal, as
// the residual against its bins.
func appendHist(dst []byte, h, r, w []int64, withTotal bool) []byte {
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

// name reads a name onto prev, the previous one, and returns it in prev's
// memory: front-coded if compact.
func (p *payloadReader) name(prev []byte, compact bool) []byte {
	var shared uint64
	if compact {
		shared = p.uvarint()
	}
	if suffix := p.bytes(); shared <= uint64(len(prev)) {
		return append(prev[:shared], suffix...)
	}
	p.fail("name shares more than the previous one holds")
	return prev[:0]
}

// hist reads one histogram and adds it onto its cells h, replacing the
// extrema; without withTotal the total is the sum of the bins. A class-all
// histogram travels as the residual against its reads and writes, which
// follow it, so those fold into all as well (nil if none).
func (p *payloadReader) hist(h, all []int64, withTotal bool) {
	n := len(h) - 4
	var total int64
	if withTotal {
		total = p.varint()
	}
	sum := p.varint()
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

// snapshot reads one snapshot's body after its names onto s, which is zero:
// in a compact payload its flags first.
func (p *payloadReader) snapshot(s *core.Snapshot, compact bool) {
	var flags uint64
	if compact {
		flags = p.uvarint()
	}
	if flags > snapDerived {
		p.fail("unknown snapshot flags")
		return
	}
	derived := flags == snapDerived
	for _, c := range []*int64{&s.Commands, &s.NumReads, &s.NumWrites, &s.ReadBytes, &s.WriteBytes, &s.Errors}[5*flags:] {
		*c = p.varint() // a derived snapshot carries its errors only
	}
	cells := s.Cells()
	var all []int64
	for k := range layout.hists {
		h := layout.hists[k].Of(cells)
		switch {
		case layout.hists[k].Class != core.All:
			p.hist(h, all, !derived) // reads and writes follow their class-all histogram
		case !derived || !isAll(&layout.hists[k]):
			p.hist(h, nil, !derived)
			all = h
		}
	}
	if derived {
		s.Derive()
	}
}

// decodePayload parses the count snapshots of a binary payload, the bytes
// after its layout id, in the compact form or generation 5's. With a nil
// base they start from zeros, behind core.MakeWritable's two allocations.
// With a base each is a delta (Snapshot.Sub): parse stages the whole
// payload, one snapshot per base disk named and one for the disks the base
// lacks; only if it is well formed and names no such disk
// (ResyncUnknownDisk: the sender built on state we lost) does add put each
// onto its base disk, exactly core.ApplyDelta. An owned base (see chainPos)
// is added onto in place; a shared one is never written, its named disks
// become new snapshots and the rest carry over by reference. Decoded names
// count against maxDecodedLen too: front-coding repeats them for free.
func decodePayload(payload []byte, count int, compact bool, base []*core.Snapshot, owned bool) ([]*core.Snapshot, error) {
	p := payloadReader{buf: payload}
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
	st.delta, st.named = slices.Grow(st.delta[:0], len(base)+1)[:len(base)+1], st.named[:0]
	st.vm, st.disk = st.vm[:0], st.disk[:0] // the first names share with ""
	clear(st.delta)
	var at baseIndex
	var unknown error
	for j := range count {
		st.vm, st.disk = p.name(st.vm, compact), p.name(st.disk, compact)
		if budget -= len(st.vm) + len(st.disk); budget < 0 {
			return nil, badFrame("names decode past the limit of %d bytes", maxDecodedLen)
		}
		var s, onto *core.Snapshot
		if base == nil {
			s = out[j]
			s.VM, s.Disk = string(st.vm), string(st.disk)
		} else {
			i, ok := at.find(base, st.vm, st.disk)
			if !ok {
				if unknown == nil { // read on: a malformed payload is a bad frame first
					unknown = resyncErr(ResyncUnknownDisk, "delta for disk %s/%s with no base state", st.vm, st.disk)
				}
				i = len(base)
			}
			s, onto = st.at(i)
		}
		p.snapshot(s, compact)
		if p.err != nil {
			return nil, p.err
		}
		if onto != nil {
			onto.AddDelta(s)
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
	delta    []*core.Snapshot // by base disk, then the disks it lacks; nil if not named
	named    []int            // the base disks staged, in the order first named
	spare    []*core.Snapshot // the snapshots behind delta, then one to read a disk named again into
	vm, disk []byte           // the previous front-coded names
}

var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// at returns the zeroed snapshot to read base disk i's delta into: its
// staged delta when i is first named; after that a spare, and the staged
// delta to add it onto, as ApplyDelta adds two deltas in turn.
func (st *staging) at(i int) (s, onto *core.Snapshot) {
	k, onto := len(st.named), st.delta[i] // spare k is past the staged ones
	if k == len(st.spare) {
		st.spare = append(st.spare, nil)
		core.MakeWritable(st.spare[k:])
	}
	s = st.spare[k]
	clear(s.Cells())
	s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes, s.Errors = 0, 0, 0, 0, 0, 0
	if onto == nil {
		st.delta[i], st.named = s, append(st.named, i)
	}
	return s, onto
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
