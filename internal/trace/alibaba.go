package trace

import (
	"bufio"

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
	sc  *lineScanner
	vms *interner

	base     uint64 // first timestamp, µs
	haveBase bool
	seq      uint64
	bad      uint64
}

// NewAlibabaSource streams Alibaba cloud-trace CSV from br.
func NewAlibabaSource(br *bufio.Reader) *AlibabaSource {
	return &AlibabaSource{sc: newLineScanner(br), vms: newInterner()}
}

// BadLines reports lines skipped as malformed or hostile.
func (s *AlibabaSource) BadLines() uint64 { return s.bad + s.sc.long }

// Next implements RecordSource.
func (s *AlibabaSource) Next(rec *Record) error {
	for {
		line, ok, err := s.sc.next()
		if err != nil {
			return err
		}
		if !ok || len(line) == 0 {
			continue
		}
		if s.parseLine(line, rec) {
			return nil
		}
		s.bad++
	}
}

func (s *AlibabaSource) parseLine(line []byte, rec *Record) bool {
	c := csvCursor{line: line}
	dev := c.field()
	typ := c.field()
	offset := c.number(false)
	length := c.number(false)
	ts := c.number(true)
	if c.bad || len(dev) == 0 {
		return false
	}
	var op scsi.OpCode
	switch {
	case eqFoldBytes(typ, "R"):
		op = scsi.OpRead16
	case eqFoldBytes(typ, "W"):
		op = scsi.OpWrite16
	default:
		return false
	}
	if !s.haveBase {
		s.base, s.haveBase = ts, true
	}
	if ts < s.base {
		return false
	}

	rec.Seq = s.seq
	s.seq++
	rec.IssueMicros = int64(ts - s.base)
	rec.CompleteMicros = rec.IssueMicros
	rec.VM = s.vms.getPrefixed("dev", dev)
	rec.Disk = "blk0"
	rec.Op = op
	rec.LBA = offset / 512
	rec.Blocks = uint32((length + 511) / 512)
	rec.Outstanding = 0
	rec.Status = scsi.StatusGood
	return true
}
