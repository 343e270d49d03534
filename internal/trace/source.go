package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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
	// FormatNative is the VSCT binary format Writer writes.
	FormatNative
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
	case FormatMSR:
		return "msr"
	case FormatAlibaba:
		return "alibaba"
	default:
		return "auto"
	}
}

// ParseFormat parses a format name ("auto", "native", "msr", "alibaba").
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatUnknown, nil
	case "native", "vsct":
		return FormatNative, nil
	case "msr", "msrc", "msr-cambridge":
		return FormatMSR, nil
	case "alibaba", "ali":
		return FormatAlibaba, nil
	default:
		return FormatUnknown, fmt.Errorf("trace: unknown format %q (want native, msr or alibaba)", s)
	}
}

// sniffLen is how many leading bytes Detect reads.
const sniffLen = 512

// Detect sniffs the trace format from the reader's first sniffLen bytes
// without consuming them. A VSCT trace is recognized by its magic; CSV
// detection is a heuristic over the first line (field count plus the op
// column).
func Detect(br *bufio.Reader) (Format, error) {
	peek, err := br.Peek(sniffLen)
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
		if strings.EqualFold(op, "Read") || strings.EqualFold(op, "Write") || strings.EqualFold(op, "Type") {
			return FormatMSR, true
		}
	case len(fields) == 5:
		op := string(bytes.TrimSpace(fields[1]))
		if strings.EqualFold(op, "R") || strings.EqualFold(op, "W") || strings.EqualFold(op, "opcode") {
			return FormatAlibaba, true
		}
	}
	return FormatUnknown, false
}

// Open wraps r as a streaming RecordSource of the given format;
// FormatUnknown sniffs it. The resolved format is returned alongside. Only
// what Detect sniffs is buffered here: each source reads through a buffer
// of its own, and bufio hands a read at least as large as its buffer
// straight to r, so every byte past the sniff is copied once.
func Open(r io.Reader, f Format) (RecordSource, Format, error) {
	if f == FormatUnknown {
		br := bufio.NewReaderSize(r, sniffLen)
		var err error
		f, err = Detect(br)
		if err == io.EOF { // empty input: a valid, empty trace
			return NewSliceSource(nil), FormatUnknown, nil
		}
		if err != nil {
			return nil, FormatUnknown, err
		}
		r = br
	}
	switch f {
	case FormatNative:
		return NewNativeSource(r), FormatNative, nil
	case FormatMSR:
		return NewMSRSource(r), FormatMSR, nil
	case FormatAlibaba:
		return NewAlibabaSource(r), FormatAlibaba, nil
	default:
		return nil, f, fmt.Errorf("trace: unsupported format %v", f)
	}
}

// ReadAll drains a source into memory — the bridge to the offline analyses
// (exact statistics, stream detection) that genuinely need the whole trace.
// Records land in blocks and are copied out once: the trace costs twice its
// size at the peak, and growing one slice left about four times its size
// in garbage.
func ReadAll(src RecordSource) ([]Record, error) {
	var full [][]Record
	var block []Record
	var err error
	for {
		if len(block) == cap(block) {
			full = append(full, block)
			block = make([]Record, 0, min(max(2*cap(block), 256), 1<<14))
		}
		block = block[:len(block)+1]
		if err = src.Next(&block[len(block)-1]); err != nil {
			break
		}
	}
	if err == io.EOF {
		err = nil
	}
	return slices.Concat(append(full, block[:len(block)-1])...), err
}

// NativeSource decodes VSCT version 2 traces, the format Writer writes, in
// one frame loop: names land in a slice indexed by id, and records decode
// in place from the read buffer, so nothing is allocated per record. Any
// other version is ErrBadVersion; DESIGN.md §8 says how older traces are
// upgraded.
type NativeSource struct {
	br      *bufio.Reader
	names   []string
	started bool
	err     error
	buf     [8]byte
}

// NewNativeSource decodes a VSCT trace.
func NewNativeSource(r io.Reader) *NativeSource {
	return &NativeSource{br: bufio.NewReaderSize(r, 1<<16)}
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
	if v := binary.LittleEndian.Uint16(head[4:6]); v != version {
		return fmt.Errorf("%w: %d (this build reads version %d; DESIGN.md §8 upgrades older traces)", ErrBadVersion, v, version)
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
		tag, err := s.br.ReadByte()
		if err == io.EOF {
			return io.EOF
		} else if err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		switch tag {
		case 'S':
			// Ids count up from 0, each defined exactly once.
			if _, err := io.ReadFull(s.br, s.buf[:2]); err != nil {
				return fmt.Errorf("%w: name frame: %v", ErrCorrupt, err)
			}
			if id := int(binary.LittleEndian.Uint16(s.buf[:2])); id != len(s.names) {
				return fmt.Errorf("%w: name id %d defined where id %d is next", ErrCorrupt, id, len(s.names))
			}
			name, err := s.name()
			if err != nil {
				return fmt.Errorf("%w: name frame: %v", ErrCorrupt, err)
			}
			s.names = append(s.names, name)
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
