package trace

import (
	"io"

	"vscsistats/internal/scsi"
)

// MSRSource streams the MSR Cambridge block-trace CSV format
// (SNIA IOTTA; Narayanan et al., FAST'08):
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// Timestamp and ResponseTime are Windows filetime ticks (100 ns);
// Offset and Size are bytes. Each line becomes one Record:
// Hostname → VM, DiskNumber → "disk<N>", timestamps rebased to the first
// record and converted to microseconds, Offset/512 → LBA,
// ceil(Size/512) → Blocks, CompleteMicros = issue + ResponseTime.
//
// The MSR corpus does not log queue depth, so Outstanding is
// reconstructed: per disk, a min-heap of completion times is swept at
// each issue, and the commands still in flight at that instant become
// the record's OutstandingAtIssue — the same definition the live vSCSI
// layer uses (other commands issued but not completed).
//
// Malformed lines (headers, truncated tails, locale-formatted numbers,
// over-long hostile lines) are skipped and counted, never fatal: parsing
// a multi-day trace should not abort at one mangled row.
type MSRSource struct {
	in     *csvReader
	disks  map[string]*msrDisk // keyed on the line's "host,disk" bytes
	recent [64]*msrDisk        // a direct-mapped cache in front of disks

	base     uint64 // first timestamp, filetime ticks
	haveBase bool
	seq      uint64
}

// msrDisk is one (Hostname, DiskNumber) the trace names: the record names,
// minted once, and the completions still in flight on the disk.
type msrDisk struct {
	key, vm, disk string
	pending       completionHeap
}

// NewMSRSource streams MSR Cambridge CSV from r. It reads chunks of its
// own, so r needs no buffer.
func NewMSRSource(r io.Reader) *MSRSource {
	return &MSRSource{in: newCSVReader(r, parseMSRLine), disks: make(map[string]*msrDisk)}
}

// BadLines reports lines skipped as malformed or hostile.
func (s *MSRSource) BadLines() uint64 { return s.in.bad }

// Next implements RecordSource.
func (s *MSRSource) Next(rec *Record) error { return s.in.nextRecord(rec, s.record) }

// parseMSRLine is the part of a line's parse that needs no earlier line.
func parseMSRLine(b []byte, at int, r *csvRow) bool {
	c := csvCursor{line: b, i: at}
	r.ts = c.number(true) // some exports carry fractions
	from := c.i
	host := c.field()
	c.field() // DiskNumber
	to := c.i - 1
	typ := c.field()
	r.off = c.number(false)
	r.size = c.number(false)
	r.resp = c.number(true)
	if c.bad || len(host) == 0 {
		return false
	}
	switch {
	case eqFoldBytes(typ, "Read"):
		r.op = scsi.OpRead16
	case eqFoldBytes(typ, "Write"):
		r.op = scsi.OpWrite16
	default:
		return false
	}
	r.from, r.split, r.to = uint32(from), uint32(from+len(host)), uint32(to)
	r.hash = 2166136261 // FNV-1a of the key, which picks its cache slot
	for _, c := range b[from:to] {
		r.hash = (r.hash ^ uint32(c)) * 16777619
	}
	return true
}

// record does the rest, in line order: the rebase, the disk and its queue
// depth, and Seq.
func (s *MSRSource) record(r *csvRow, lines []byte, rec *Record) bool {
	if !s.haveBase {
		s.base, s.haveBase = r.ts, true
	}
	if r.ts < s.base {
		return false // pre-rebase straggler; cannot express a negative time
	}

	issue := int64((r.ts - s.base) / 10) // 100 ns ticks → µs
	latency := int64(r.resp / 10)
	// Hostname and DiskNumber are adjacent, so the bytes "host,disk" name
	// the disk in one lookup. A hostname holds no comma: the key is
	// injective, and hostname "3" cannot collide with disk number 3.
	key := lines[r.from:r.to]
	slot := &s.recent[r.hash%uint32(len(s.recent))]
	d := *slot
	if d == nil || d.key != string(key) {
		if d = s.disks[string(key)]; d == nil {
			k, host := string(key), r.split-r.from
			d = &msrDisk{key: k, vm: k[:host], disk: "disk" + k[host+1:]}
			s.disks[k] = d
		}
		*slot = d
	}

	// Sweep completions that precede this issue, then count what is left
	// in flight on this disk.
	d.pending.sweep(issue)
	outstanding := min(d.pending.len(), 0xffff)
	d.pending.push(issue + latency)

	rec.Seq = s.seq
	s.seq++
	rec.IssueMicros = issue
	rec.CompleteMicros = issue + latency
	rec.VM = d.vm
	rec.Disk = d.disk
	rec.Op = r.op
	rec.LBA = r.off / 512
	rec.Blocks = uint32((r.size + 511) / 512)
	rec.Outstanding = uint16(outstanding)
	rec.Status = scsi.StatusGood
	return true
}

// completionHeap is a min-heap of in-flight completion times (µs), used to
// reconstruct queue depth from formats that only log latency.
type completionHeap struct{ t []int64 }

func (h *completionHeap) len() int { return len(h.t) }

// sweep drops every completion at or before now.
func (h *completionHeap) sweep(now int64) {
	for len(h.t) > 0 && h.t[0] <= now {
		h.popMin()
	}
}

func (h *completionHeap) push(t int64) {
	h.t = append(h.t, t)
	i := len(h.t) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.t[p] <= h.t[i] {
			break
		}
		h.t[p], h.t[i] = h.t[i], h.t[p]
		i = p
	}
}

func (h *completionHeap) popMin() {
	last := len(h.t) - 1
	h.t[0] = h.t[last]
	h.t = h.t[:last]
	n := len(h.t)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.t[l] < h.t[min] {
			min = l
		}
		if r < n && h.t[r] < h.t[min] {
			min = r
		}
		if min == i {
			return
		}
		h.t[i], h.t[min] = h.t[min], h.t[i]
		i = min
	}
}

// eqFoldBytes is ASCII case-insensitive equality without allocating.
func eqFoldBytes(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}
