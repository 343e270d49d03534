package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"vscsistats/internal/scsi"
)

// RecordSource is a streaming supplier of trace records: Next fills *rec
// and returns nil, or returns io.EOF when the trace ends. The contract is
// built for multi-gigabyte traces: a source holds O(1) state (a read
// buffer, an interned name table), never the trace, and a well-behaved
// implementation allocates nothing per record after warm-up — names are
// interned once per distinct (VM, disk) and every numeric field is decoded
// in place. The replay engine (ReplayParallel) and the
// conversion tooling consume any RecordSource interchangeably.
//
// Ordering contract: records must be issue-ordered within each (VM, disk)
// substream. Capture is per-disk sequential, public block traces are
// timestamp-sorted, and Synthesize emits in global issue order, so every
// shipped source satisfies this; sources that cannot (a completion-time
// capture replayed raw) are repaired by NewMergeSource.
type RecordSource interface {
	Next(rec *Record) error
}

// SliceSource adapts an in-memory []Record to RecordSource.
type SliceSource struct {
	recs []Record
	pos  int
}

// NewSliceSource returns a source over recs (not copied).
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements RecordSource.
func (s *SliceSource) Next(rec *Record) error {
	if s.pos >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}

// Format identifies a trace encoding.
type Format int

// The supported trace encodings.
const (
	// FormatUnknown asks Open to sniff the encoding.
	FormatUnknown Format = iota
	// FormatNative is the VSCT binary format Writer writes; NativeSource
	// reads version 1 traces too.
	FormatNative
	// FormatStream is the headerless frame stream that preceded VSCT
	// version 2, read as input only.
	FormatStream
	// FormatMSR is the MSR Cambridge block-trace CSV
	// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime).
	FormatMSR
	// FormatAlibaba is the Alibaba cloud block-storage trace CSV
	// (device_id,opcode,offset,length,timestamp).
	FormatAlibaba
)

// String names the format as accepted by ParseFormat.
func (f Format) String() string {
	switch f {
	case FormatNative:
		return "native"
	case FormatStream:
		return "stream"
	case FormatMSR:
		return "msr"
	case FormatAlibaba:
		return "alibaba"
	default:
		return "auto"
	}
}

// ParseFormat parses a format name ("auto", "native", "stream", "msr",
// "alibaba").
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatUnknown, nil
	case "native", "vsct":
		return FormatNative, nil
	case "stream":
		return FormatStream, nil
	case "msr", "msrc", "msr-cambridge":
		return FormatMSR, nil
	case "alibaba", "ali":
		return FormatAlibaba, nil
	default:
		return FormatUnknown, fmt.Errorf("trace: unknown format %q (want native, stream, msr or alibaba)", s)
	}
}

// Detect sniffs the trace format from the reader's first bytes without
// consuming them. A VSCT trace is recognized by its magic; CSV detection
// is a heuristic over the first line (field count plus the op column); the
// legacy headerless stream is guessed from its first frame tag.
func Detect(br *bufio.Reader) (Format, error) {
	peek, err := br.Peek(512)
	if len(peek) == 0 {
		if err == io.EOF {
			return FormatUnknown, io.EOF
		}
		return FormatUnknown, err
	}
	if len(peek) >= 4 && string(peek[:4]) == magic {
		return FormatNative, nil
	}
	if f, ok := sniffCSV(peek); ok {
		return f, nil
	}
	if peek[0] == 'S' || peek[0] == 'R' {
		return FormatStream, nil
	}
	return FormatUnknown, fmt.Errorf("trace: unrecognized trace format (pass -format explicitly)")
}

// sniffCSV inspects the first line: printable, comma-separated, and shaped
// like one of the public CSV dialects (or its header row).
func sniffCSV(peek []byte) (Format, bool) {
	line := peek
	if i := bytes.IndexByte(peek, '\n'); i >= 0 {
		line = peek[:i]
	}
	line = bytes.TrimSuffix(line, []byte{'\r'})
	for _, b := range line {
		if b < 0x20 || b > 0x7e {
			return FormatUnknown, false
		}
	}
	fields := bytes.Split(line, []byte{','})
	switch {
	case len(fields) >= 7:
		op := string(bytes.TrimSpace(fields[3]))
		if eqFold(op, "Read") || eqFold(op, "Write") || eqFold(op, "Type") {
			return FormatMSR, true
		}
	case len(fields) == 5:
		op := string(bytes.TrimSpace(fields[1]))
		if eqFold(op, "R") || eqFold(op, "W") || eqFold(op, "opcode") {
			return FormatAlibaba, true
		}
	}
	return FormatUnknown, false
}

func eqFold(a, b string) bool { return strings.EqualFold(a, b) }

// Open wraps r as a streaming RecordSource of the given format;
// FormatUnknown sniffs it. The resolved format is returned alongside.
func Open(r io.Reader, f Format) (RecordSource, Format, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if f == FormatUnknown {
		var err error
		f, err = Detect(br)
		if err == io.EOF { // empty input: a valid, empty stream
			return NewStreamSource(br), FormatStream, nil
		}
		if err != nil {
			return nil, FormatUnknown, err
		}
	}
	switch f {
	case FormatNative:
		return NewNativeSource(br), FormatNative, nil
	case FormatStream:
		return NewStreamSource(br), FormatStream, nil
	case FormatMSR:
		return NewMSRSource(br), FormatMSR, nil
	case FormatAlibaba:
		return NewAlibabaSource(br), FormatAlibaba, nil
	default:
		return nil, f, fmt.Errorf("trace: unsupported format %v", f)
	}
}

// ReadAll drains a source into memory — the bridge to the offline analyses
// (exact statistics, stream detection) that genuinely need the whole trace.
func ReadAll(src RecordSource) ([]Record, error) {
	var out []Record
	var rec Record
	for {
		if err := src.Next(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}

// NativeSource decodes VSCT traces in one frame loop: names land in a
// slice indexed by id, and records decode in place from the read buffer,
// so nothing is allocated per record. Version 2 is what Writer writes. Two
// older encodings are read as inputs only: version 1 — magic, u16 version,
// u16 name count, the names (u16 len + bytes), u64 record count, then
// untagged records — and the headerless frame stream (NewStreamSource).
type NativeSource struct {
	br      *bufio.Reader
	names   []string
	started bool
	counted bool   // version 1: records carry no tag, remain counts them
	remain  uint64 // records left in a version 1 trace
	err     error
	buf     [8]byte
}

// NewNativeSource decodes a VSCT trace.
func NewNativeSource(r io.Reader) *NativeSource {
	return &NativeSource{br: bufio.NewReaderSize(r, 1<<16)}
}

// NewStreamSource decodes the headerless frame stream that preceded VSCT
// version 2: the same frames with no magic in front.
func NewStreamSource(r io.Reader) *NativeSource {
	return &NativeSource{br: bufio.NewReaderSize(r, 1<<16), started: true}
}

func (s *NativeSource) start() error {
	s.started = true
	head := s.buf[:6]
	if _, err := io.ReadFull(s.br, head); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(head[:4]) != magic {
		return ErrBadMagic
	}
	switch v := binary.LittleEndian.Uint16(head[4:6]); v {
	case version:
		return nil
	case 1: // the name table and the record count follow
	default:
		return fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	if _, err := io.ReadFull(s.br, s.buf[:2]); err != nil {
		return fmt.Errorf("%w: name table: %v", ErrCorrupt, err)
	}
	for n := binary.LittleEndian.Uint16(s.buf[:2]); n > 0; n-- {
		name, err := s.name()
		if err != nil {
			return fmt.Errorf("%w: name table: %v", ErrCorrupt, err)
		}
		s.names = append(s.names, name)
	}
	if _, err := io.ReadFull(s.br, s.buf[:8]); err != nil {
		return fmt.Errorf("%w: record count: %v", ErrCorrupt, err)
	}
	s.counted, s.remain = true, binary.LittleEndian.Uint64(s.buf[:8])
	const maxRecords = 1 << 40 // a sanity bound, not a memory bound: records stream
	if s.remain > maxRecords {
		return fmt.Errorf("%w: absurd record count %d", ErrCorrupt, s.remain)
	}
	return nil
}

// name reads one u16-length-prefixed name.
func (s *NativeSource) name() (string, error) {
	if _, err := io.ReadFull(s.br, s.buf[:2]); err != nil {
		return "", err
	}
	b := make([]byte, binary.LittleEndian.Uint16(s.buf[:2]))
	if _, err := io.ReadFull(s.br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// Next implements RecordSource.
func (s *NativeSource) Next(rec *Record) error {
	if s.err == nil {
		s.err = s.next(rec)
	}
	return s.err
}

func (s *NativeSource) next(rec *Record) error {
	if !s.started {
		if err := s.start(); err != nil {
			return err
		}
	}
	for {
		tag := byte('R')
		if s.counted {
			if s.remain == 0 {
				return io.EOF
			}
			s.remain--
		} else {
			var err error
			if tag, err = s.br.ReadByte(); err == io.EOF {
				return io.EOF
			} else if err != nil {
				return fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
		switch tag {
		case 'S':
			// Ids count up from 0; an id already defined is redefined, as
			// in two legacy streams written back to back.
			if _, err := io.ReadFull(s.br, s.buf[:2]); err != nil {
				return fmt.Errorf("%w: name frame: %v", ErrCorrupt, err)
			}
			id := int(binary.LittleEndian.Uint16(s.buf[:2]))
			if id > len(s.names) {
				return fmt.Errorf("%w: name id %d skips ahead of %d", ErrCorrupt, id, len(s.names))
			}
			name, err := s.name()
			if err != nil {
				return fmt.Errorf("%w: name frame: %v", ErrCorrupt, err)
			}
			if id == len(s.names) {
				s.names = append(s.names, name)
			} else {
				s.names[id] = name
			}
		case 'R':
			b, err := s.br.Peek(recordSize)
			if err != nil {
				return fmt.Errorf("%w: record: %v", ErrCorrupt, err)
			}
			vm, disk := int(binary.LittleEndian.Uint16(b[36:38])), int(binary.LittleEndian.Uint16(b[38:40]))
			if vm >= len(s.names) || disk >= len(s.names) {
				return fmt.Errorf("%w: record references undefined name", ErrCorrupt)
			}
			decodeRecord(b, s.names[vm], s.names[disk], rec)
			s.br.Discard(recordSize)
			return nil
		default:
			return fmt.Errorf("%w: unknown frame tag %q", ErrCorrupt, tag)
		}
	}
}

// decodeRecord fills rec from one 44-byte record frame plus resolved names.
func decodeRecord(b []byte, vm, disk string, rec *Record) {
	rec.Seq = binary.LittleEndian.Uint64(b[0:8])
	rec.IssueMicros = int64(binary.LittleEndian.Uint64(b[8:16]))
	rec.CompleteMicros = int64(binary.LittleEndian.Uint64(b[16:24]))
	rec.LBA = binary.LittleEndian.Uint64(b[24:32])
	rec.Blocks = binary.LittleEndian.Uint32(b[32:36])
	rec.VM = vm
	rec.Disk = disk
	rec.Op = scsi.OpCode(b[40])
	rec.Status = scsi.Status(b[41])
	rec.Outstanding = binary.LittleEndian.Uint16(b[42:44])
}
