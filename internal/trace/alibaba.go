package trace

import (
	"io"

	"vscsistats/internal/scsi"
)

// AlibabaSource streams the Alibaba Cloud block-storage trace CSV format
// (Li et al., FAST'23 / arXiv 2203.10766):
//
//	device_id,opcode,offset,length,timestamp
//
// opcode is R or W, offset and length are bytes, timestamp is
// microseconds. Each virtual device becomes its own tenant — device_id →
// VM "dev<id>" with a single disk "blk0" — which is how the corpus is
// meant to be read: one device per cloud virtual disk. Timestamps are
// rebased to the first record. The format carries no response time, so
// CompleteMicros equals IssueMicros (zero latency) and Outstanding is 0 —
// latency-family metrics come out degenerate, while the size, seek,
// read/write-mix and interarrival families are fully populated.
//
// Malformed or hostile lines are skipped and counted, as with MSRSource.
type AlibabaSource struct {
	in  *csvReader
	vms *interner

	base     uint64 // first timestamp, µs
	haveBase bool
	seq      uint64
}

// NewAlibabaSource streams Alibaba cloud-trace CSV from r. It reads chunks
// of its own, so r needs no buffer.
func NewAlibabaSource(r io.Reader) *AlibabaSource {
	return &AlibabaSource{in: newCSVReader(r, parseAlibabaLine), vms: newInterner()}
}

// BadLines reports lines skipped as malformed or hostile.
func (s *AlibabaSource) BadLines() uint64 { return s.in.bad }

// Next implements RecordSource.
func (s *AlibabaSource) Next(rec *Record) error { return s.in.nextRecord(rec, s.record) }

// parseAlibabaLine is the part of a line's parse that needs no earlier
// line.
func parseAlibabaLine(b []byte, at int, r *csvRow) bool {
	c := csvCursor{line: b, i: at}
	from := c.i
	dev := c.field()
	typ := c.field()
	r.off = c.number(false)
	r.size = c.number(false)
	r.ts = c.number(true)
	if c.bad || len(dev) == 0 {
		return false
	}
	switch {
	case eqFoldBytes(typ, "R"):
		r.op = scsi.OpRead16
	case eqFoldBytes(typ, "W"):
		r.op = scsi.OpWrite16
	default:
		return false
	}
	r.from, r.to = uint32(from), uint32(from+len(dev))
	return true
}

// record does the rest, in line order: the rebase, the device's name and
// Seq.
func (s *AlibabaSource) record(r *csvRow, lines []byte, rec *Record) bool {
	if !s.haveBase {
		s.base, s.haveBase = r.ts, true
	}
	if r.ts < s.base {
		return false
	}

	rec.Seq = s.seq
	s.seq++
	rec.IssueMicros = int64(r.ts - s.base)
	rec.CompleteMicros = rec.IssueMicros
	rec.VM = s.vms.getPrefixed("dev", lines[r.from:r.to])
	rec.Disk = "blk0"
	rec.Op = r.op
	rec.LBA = r.off / 512
	rec.Blocks = uint32((r.size + 511) / 512)
	rec.Outstanding = 0
	rec.Status = scsi.StatusGood
	return true
}
