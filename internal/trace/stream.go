package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"vscsistats/internal/vscsi"
)

// Writer encodes a VSCT trace as commands complete, so a capture of any
// length streams to disk instead of waiting for its name table and record
// count. It is a tracing observer for captures larger than any sensible
// ring, and the encoder behind Write.
//
//	trace := "VSCT" u16 version=2 frame*
//	frame := 'S' u16 id u16 len bytes   (define name id, once; ids count up from 0)
//	       | 'R' record (44 bytes)      (one command)
//
// Close flushes; NativeSource decodes the format.
type Writer struct {
	w   *bufio.Writer
	ids map[string]uint16

	count uint64
	err   error
}

// NewWriter begins a trace on w.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: bufio.NewWriter(w), ids: make(map[string]uint16)}
	head := binary.LittleEndian.AppendUint16([]byte(magic), version)
	tw.w.Write(head) // buffered: an I/O error surfaces at the first flush
	return tw
}

// Count reports records written.
func (tw *Writer) Count() uint64 { return tw.count }

// Err reports the first write error; the trace stops recording after one.
func (tw *Writer) Err() error { return tw.err }

var _ vscsi.Observer = (*Writer)(nil)

// OnIssue implements vscsi.Observer.
func (tw *Writer) OnIssue(*vscsi.Request) {}

// OnComplete appends one record frame.
func (tw *Writer) OnComplete(r *vscsi.Request) {
	if tw.err != nil {
		return
	}
	tw.append(FromRequest(r))
}

// Append writes one record directly (for non-observer use).
func (tw *Writer) Append(rec Record) error {
	tw.append(rec)
	return tw.err
}

func (tw *Writer) append(rec Record) {
	// The error is sticky: once anything failed — a short write, a full
	// name table, a name too long to encode — the trace is truncated and
	// nothing more may count. bufio would absorb writes that follow a
	// non-I/O error, so Count would keep reporting records that never
	// reached the trace.
	if tw.err != nil {
		return
	}
	vm, ok := tw.intern(rec.VM)
	if !ok {
		return
	}
	disk, ok := tw.intern(rec.Disk)
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
	if _, err := tw.w.Write(b[:]); err != nil {
		tw.err = err
		return
	}
	tw.count++
}

func (tw *Writer) intern(s string) (uint16, bool) {
	if id, ok := tw.ids[s]; ok {
		return id, true
	}
	switch {
	case len(tw.ids) == 0xFFFF:
		tw.err = fmt.Errorf("trace: name table full")
		return 0, false
	case len(s) > 0xFFFF:
		tw.err = fmt.Errorf("trace: name of %d bytes is too long", len(s))
		return 0, false
	}
	id := uint16(len(tw.ids))
	tw.ids[s] = id
	var head [5]byte
	head[0] = 'S'
	binary.LittleEndian.PutUint16(head[1:3], id)
	binary.LittleEndian.PutUint16(head[3:5], uint16(len(s)))
	if _, err := tw.w.Write(head[:]); err != nil {
		tw.err = err
		return 0, false
	}
	if _, err := tw.w.WriteString(s); err != nil {
		tw.err = err
		return 0, false
	}
	return id, true
}

// Close flushes buffered frames. A flush failure is recorded like any
// other write error, so Err() keeps reporting it after Close returns.
func (tw *Writer) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		tw.err = err
	}
	return tw.err
}

// Write encodes records as one VSCT trace.
func Write(w io.Writer, records []Record) error {
	tw := NewWriter(w)
	for i := range records {
		if err := tw.Append(records[i]); err != nil {
			return err
		}
	}
	return tw.Close()
}

// Read decodes a whole VSCT trace.
func Read(r io.Reader) ([]Record, error) { return ReadAll(NewNativeSource(r)) }
