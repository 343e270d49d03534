package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"unsafe"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
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
// Names, units and edges never travel: layoutID is a hash of the canonical
// layout's (see layout below), and a decoded histogram shares the reference
// layout's Name, Unit and Edges — all immutable. A frame whose layoutID is
// not ours is an UnknownLayoutError, not a bad frame.

// histsPerSnapshot is how many histograms one snapshot carries.
const histsPerSnapshot = 16

// minSnapshotBytes is the smallest encoded snapshot: two empty names, six
// one-byte counters and sixteen empty histograms of five bytes each. It
// bounds header.Count by the payload's size before anything is allocated.
const minSnapshotBytes = 2 + 6 + histsPerSnapshot*5

// isAll reports whether payload histogram k is a class-all histogram, the
// ones that travel as a residual against the reads and writes after them.
func isAll(k int) bool { return k%3 == 0 && k < histsPerSnapshot-1 }

// classed returns the snapshot's five per-class histogram families in
// payload order.
func classed(s *core.Snapshot) [5]*[3]*histogram.Snapshot {
	return [5]*[3]*histogram.Snapshot{
		&s.IOLength, &s.SeekDistance, &s.Outstanding, &s.Latency, &s.Interarrival,
	}
}

// wireLayout is the canonical bin layout in payload order.
type wireLayout struct {
	id uint64
	// ref donates Name, Unit and Edges to every decoded histogram.
	ref [histsPerSnapshot]*histogram.Snapshot
	// off[i] is where histogram i's bins start in a snapshot's slice of
	// the counts slab; off[histsPerSnapshot] is the bins per snapshot.
	off [histsPerSnapshot + 1]int
	// zeros stands in for reads and writes when encoding a histogram that
	// is not a class-all residual.
	zeros []int64
	// decodedBytes is what one decoded snapshot costs in memory.
	decodedBytes int
}

var layout = newWireLayout(refLayout)

func newWireLayout(ref *core.Snapshot) *wireLayout {
	l := &wireLayout{}
	for f, fam := range classed(ref) {
		copy(l.ref[3*f:], fam[:])
	}
	l.ref[histsPerSnapshot-1] = ref.SeekWindowed
	h := fnv.New64a()
	var word [8]byte
	maxBins := 0
	for i, r := range l.ref {
		l.off[i+1] = l.off[i] + len(r.Counts)
		maxBins = max(maxBins, len(r.Counts))
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
	l.zeros = make([]int64, maxBins)
	l.decodedBytes = int(unsafe.Sizeof(snapshotSlab{})) + 8*l.off[histsPerSnapshot]
	return l
}

// UnknownLayoutError reports a well-formed binary frame whose histograms
// were laid out by a different binary generation: its layoutID is not the
// hash of this binary's canonical layout, so the bins cannot be read. It
// deliberately does not match ErrBadFrame — the bytes are not wrong, they
// are not ours. Push ingest treats it like a batch that fails Validate
// (a delta gets a layout-mismatch resync) and log replay skips the frame.
type UnknownLayoutError struct {
	// Header is the frame's batch with everything but the snapshots.
	Header   *Batch
	LayoutID uint64
}

func (e *UnknownLayoutError) Error() string {
	return fmt.Sprintf("fleet: frame layout %#016x is not this binary's %#016x", e.LayoutID, layout.id)
}

// appendPayload renders snaps as a binary payload onto dst. Only snapshots
// in the canonical layout can be rendered; anything else is an error.
func appendPayload(dst []byte, snaps []*core.Snapshot) ([]byte, error) {
	dst = binary.BigEndian.AppendUint64(dst, layout.id)
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("fleet: snapshot %d is null", i)
		}
		dst = binary.AppendUvarint(dst, uint64(len(s.VM)))
		dst = append(dst, s.VM...)
		dst = binary.AppendUvarint(dst, uint64(len(s.Disk)))
		dst = append(dst, s.Disk...)
		for _, c := range [...]int64{s.Commands, s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes, s.Errors} {
			dst = binary.AppendVarint(dst, c)
		}
		hists := [histsPerSnapshot]*histogram.Snapshot{histsPerSnapshot - 1: s.SeekWindowed}
		for f, fam := range classed(s) {
			copy(hists[3*f:], fam[:])
		}
		for k, h := range hists {
			if err := checkLayout(h, layout.ref[k]); err != nil {
				return nil, fmt.Errorf("fleet: snapshot %d (%s/%s) histogram %d: %w", i, s.VM, s.Disk, k, err)
			}
		}
		for k, h := range hists {
			if isAll(k) {
				r, w := hists[k+1], hists[k+2]
				dst = appendHist(dst, h, h.Sum-r.Sum-w.Sum, r.Counts, w.Counts)
				continue
			}
			zeros := layout.zeros[:len(h.Counts)]
			dst = appendHist(dst, h, h.Sum, zeros, zeros)
		}
	}
	return dst, nil
}

// appendHist renders one histogram whose bins travel as h.Counts − r − w.
func appendHist(dst []byte, h *histogram.Snapshot, sum int64, r, w []int64) []byte {
	var total int64
	nnz := 0
	for i, c := range h.Counts {
		total += c
		if c-r[i]-w[i] != 0 {
			nnz++
		}
	}
	dst = binary.AppendVarint(dst, h.Total-total)
	dst = binary.AppendVarint(dst, sum)
	dst = binary.AppendVarint(dst, h.Min)
	dst = binary.AppendVarint(dst, h.Max)
	dst = binary.AppendUvarint(dst, uint64(nnz))
	prev := -1
	for i, c := range h.Counts {
		if d := c - r[i] - w[i]; d != 0 {
			dst = binary.AppendUvarint(dst, uint64(i-prev-1))
			dst = binary.AppendVarint(dst, d)
			prev = i
		}
	}
	return dst
}

// snapshotSlab is one decoded snapshot and its histograms, so a batch's
// structs come from one allocation.
type snapshotSlab struct {
	snap  core.Snapshot
	hists [histsPerSnapshot]histogram.Snapshot
}

// payloadReader walks a binary payload; every read is bounds-checked and
// the first failure sticks.
type payloadReader struct {
	buf []byte
	err error
}

func (p *payloadReader) fail(what string) {
	if p.err == nil {
		p.err = badFrame("binary payload: %s %d bytes before the end", what, len(p.buf))
	}
	p.buf = nil
}

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.buf)
	if n <= 0 {
		p.fail("bad uvarint")
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.buf)
	if n <= 0 {
		p.fail("bad varint")
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *payloadReader) str() string {
	n := p.uvarint()
	if n > uint64(len(p.buf)) {
		p.fail("string overruns the payload")
		return ""
	}
	s := string(p.buf[:n])
	p.buf = p.buf[n:]
	return s
}

// hist reads one histogram into h over counts (zeroed, len = bins) and
// returns its Total residual; the caller adds Σcounts once the bins are
// final.
func (p *payloadReader) hist(h *histogram.Snapshot, ref *histogram.Snapshot, counts []int64) (totalResidual int64) {
	totalResidual = p.varint()
	*h = histogram.Snapshot{
		Name: ref.Name, Unit: ref.Unit, Edges: ref.Edges, Counts: counts,
		Sum: p.varint(), Min: p.varint(), Max: p.varint(),
	}
	nnz := p.uvarint()
	if nnz > uint64(len(counts)) {
		p.fail("more non-zero bins than bins")
		return 0
	}
	next := 0 // lowest bin the next entry may name
	for ; nnz > 0; nnz-- {
		gap := p.uvarint()
		if gap >= uint64(len(counts)-next) {
			p.fail("bin index out of range")
			return 0
		}
		i := next + int(gap)
		counts[i] = p.varint()
		next = i + 1
	}
	return totalResidual
}

// decodePayload parses a binary payload of count snapshots. The structs
// and the bins of the whole batch come from two slabs.
func decodePayload(payload []byte, count int) ([]*core.Snapshot, error) {
	if len(payload) < 8 {
		return nil, badFrame("binary payload of %d bytes has no layout id", len(payload))
	}
	if id := binary.BigEndian.Uint64(payload); id != layout.id {
		return nil, &UnknownLayoutError{LayoutID: id}
	}
	p := payloadReader{buf: payload[8:]}
	if count < 0 || count > len(p.buf)/minSnapshotBytes {
		return nil, badFrame("header count %d cannot fit a %d-byte payload", count, len(payload))
	}
	if count > maxDecodedLen/layout.decodedBytes {
		return nil, badFrame("header count %d decodes past the limit of %d bytes", count, maxDecodedLen)
	}
	bins := layout.off[histsPerSnapshot]
	slabs := make([]snapshotSlab, count)
	counts := make([]int64, count*bins)
	var out []*core.Snapshot // stays nil for an empty batch, as the encoder was handed
	if count > 0 {
		out = make([]*core.Snapshot, count)
	}
	for i := range slabs {
		s, hs := &slabs[i].snap, &slabs[i].hists
		s.VM, s.Disk = p.str(), p.str()
		s.Commands, s.NumReads, s.NumWrites = p.varint(), p.varint(), p.varint()
		s.ReadBytes, s.WriteBytes, s.Errors = p.varint(), p.varint(), p.varint()
		mine := counts[i*bins : (i+1)*bins]
		var residual [histsPerSnapshot]int64
		for k := range hs {
			residual[k] = p.hist(&hs[k], layout.ref[k], mine[layout.off[k]:layout.off[k+1]:layout.off[k+1]])
		}
		if p.err != nil {
			return nil, p.err
		}
		for k := range hs {
			h := &hs[k]
			if isAll(k) {
				r, w := &hs[k+1], &hs[k+2]
				h.Sum += r.Sum + w.Sum
				for j := range h.Counts {
					h.Counts[j] += r.Counts[j] + w.Counts[j]
				}
			}
			h.Total = residual[k]
			for _, c := range h.Counts {
				h.Total += c
			}
		}
		for f, fam := range classed(s) {
			fam[0], fam[1], fam[2] = &hs[3*f], &hs[3*f+1], &hs[3*f+2]
		}
		s.SeekWindowed = &hs[histsPerSnapshot-1]
		out[i] = s
	}
	if len(p.buf) != 0 {
		return nil, badFrame("binary payload: %d trailing bytes", len(p.buf))
	}
	return out, nil
}
