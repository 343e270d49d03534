package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"vscsistats/internal/vscsi"
)

// StreamWriter is an unbounded tracing observer that appends records to an
// io.Writer as commands complete, for captures larger than any sensible
// ring. The stream format is a sequence of self-describing frames (so the
// string table can grow as new VMs appear), distinct from the at-rest
// format of Write/Read:
//
//	frame := 'S' u16 id u16 len bytes   (define string id)
//	       | 'R' record (44 bytes)      (one command)
//
// Close flushes; ReadStream consumes the format.
type StreamWriter struct {
	w    *bufio.Writer
	ids  map[string]uint16
	next uint16

	count uint64
	err   error
}

// NewStreamWriter begins streaming to w.
func NewStreamWriter(w io.Writer) *StreamWriter {
	return &StreamWriter{w: bufio.NewWriter(w), ids: make(map[string]uint16)}
}

// Count reports records written; Err the first write error (the stream
// stops recording after an error).
func (sw *StreamWriter) Count() uint64 { return sw.count }

// Err reports the first write error; the stream stops recording after one.
func (sw *StreamWriter) Err() error { return sw.err }

var _ vscsi.Observer = (*StreamWriter)(nil)

// OnIssue implements vscsi.Observer.
func (sw *StreamWriter) OnIssue(*vscsi.Request) {}

// OnComplete appends one record frame.
func (sw *StreamWriter) OnComplete(r *vscsi.Request) {
	if sw.err != nil {
		return
	}
	sw.append(FromRequest(r))
}

// Append writes one record directly (for non-observer use).
func (sw *StreamWriter) Append(rec Record) error {
	sw.append(rec)
	return sw.err
}

func (sw *StreamWriter) append(rec Record) {
	// The error is sticky: once anything failed — a short write, a full
	// string table — the stream is truncated and nothing more may count.
	// bufio would absorb writes that follow a non-I/O error, so Count
	// would keep reporting records that never reached the stream.
	if sw.err != nil {
		return
	}
	vm, ok := sw.intern(rec.VM)
	if !ok {
		return
	}
	disk, ok := sw.intern(rec.Disk)
	if !ok {
		return
	}
	var b [1 + recordSize]byte
	b[0] = 'R'
	p := b[1:]
	binary.LittleEndian.PutUint64(p[0:8], rec.Seq)
	binary.LittleEndian.PutUint64(p[8:16], uint64(rec.IssueMicros))
	binary.LittleEndian.PutUint64(p[16:24], uint64(rec.CompleteMicros))
	binary.LittleEndian.PutUint64(p[24:32], rec.LBA)
	binary.LittleEndian.PutUint32(p[32:36], rec.Blocks)
	binary.LittleEndian.PutUint16(p[36:38], vm)
	binary.LittleEndian.PutUint16(p[38:40], disk)
	p[40] = byte(rec.Op)
	p[41] = byte(rec.Status)
	binary.LittleEndian.PutUint16(p[42:44], rec.Outstanding)
	if _, err := sw.w.Write(b[:]); err != nil {
		sw.err = err
		return
	}
	sw.count++
}

func (sw *StreamWriter) intern(s string) (uint16, bool) {
	if id, ok := sw.ids[s]; ok {
		return id, true
	}
	if sw.next == 0xFFFF {
		sw.err = fmt.Errorf("trace: stream string table full")
		return 0, false
	}
	id := sw.next
	sw.next++
	sw.ids[s] = id
	var head [5]byte
	head[0] = 'S'
	binary.LittleEndian.PutUint16(head[1:3], id)
	binary.LittleEndian.PutUint16(head[3:5], uint16(len(s)))
	if _, err := sw.w.Write(head[:]); err != nil {
		sw.err = err
		return 0, false
	}
	if _, err := sw.w.WriteString(s); err != nil {
		sw.err = err
		return 0, false
	}
	return id, true
}

// Close flushes buffered frames. A flush failure is recorded like any
// other write error, so Err() keeps reporting it after Close returns.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.w.Flush(); err != nil {
		sw.err = err
	}
	return sw.err
}

// ReadStream parses a stream produced by StreamWriter.
func ReadStream(r io.Reader) ([]Record, error) { return ReadAll(NewStreamSource(r)) }
