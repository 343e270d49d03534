// Package trace implements the paper's virtual SCSI command tracing
// framework: "More thorough analysis may still require an I/O trace so we
// provide a simple virtual SCSI command tracing framework. Since our
// instrumentation is available at the hypervisor, we are able to collect
// command traces for arbitrary, unmodified guest OSes and applications."
//
// Records use a compact fixed-size binary encoding with an interned string
// table for VM and disk names; traces round-trip through io.Writer/Reader
// and export to CSV for offline tooling.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"vscsistats/internal/scsi"
	"vscsistats/internal/vscsi"
)

// Record is one completed virtual SCSI command.
type Record struct {
	// Seq is the per-disk issue sequence number.
	Seq uint64
	// IssueMicros and CompleteMicros are virtual timestamps.
	IssueMicros    int64
	CompleteMicros int64
	// VM and Disk identify the virtual disk.
	VM, Disk string
	// Op, LBA and Blocks describe the command.
	Op     scsi.OpCode
	LBA    uint64
	Blocks uint32
	// Outstanding is the queue depth observed at issue.
	Outstanding uint16
	// Status is the completion status.
	Status scsi.Status
}

// FromRequest converts a completed vSCSI request into a Record.
func FromRequest(r *vscsi.Request) Record {
	oio := r.OutstandingAtIssue
	if oio > 0xFFFF {
		oio = 0xFFFF
	}
	return Record{
		Seq:            r.ID,
		IssueMicros:    r.IssueTime.Micros(),
		CompleteMicros: r.CompleteTime.Micros(),
		VM:             r.VM,
		Disk:           r.Disk,
		Op:             r.Cmd.Op,
		LBA:            r.Cmd.LBA,
		Blocks:         r.Cmd.Blocks,
		Outstanding:    uint16(oio),
		Status:         r.Status,
	}
}

// LatencyMicros is the issue-to-completion time.
func (r Record) LatencyMicros() int64 { return r.CompleteMicros - r.IssueMicros }

// LastLBA is the final logical block touched.
func (r Record) LastLBA() uint64 {
	if r.Blocks == 0 {
		return r.LBA
	}
	return r.LBA + uint64(r.Blocks) - 1
}

// Bytes is the transfer size in bytes.
func (r Record) Bytes() int64 { return int64(r.Blocks) * scsi.SectorSize }

// String renders the record as one CSV-ish line.
func (r Record) String() string {
	return fmt.Sprintf("%d %s/%s %s t=%dus lat=%dus oio=%d %s",
		r.Seq, r.VM, r.Disk, scsi.Command{Op: r.Op, LBA: r.LBA, Blocks: r.Blocks},
		r.IssueMicros, r.LatencyMicros(), r.Outstanding, r.Status)
}

// Binary format:
//
//	magic "VSCT" | u16 version | u16 stringCount | strings (u16 len + bytes)
//	u64 recordCount | records (recordSize bytes each, little endian)
const (
	magic      = "VSCT"
	version    = 1
	recordSize = 44
)

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("trace: bad magic (not a vSCSI trace)")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrCorrupt    = errors.New("trace: corrupt stream")
)

// Write serializes records to w.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	strs := []string{}
	idx := map[string]uint16{}
	intern := func(s string) (uint16, error) {
		if i, ok := idx[s]; ok {
			return i, nil
		}
		if len(strs) > 0xFFFF {
			return 0, fmt.Errorf("trace: too many distinct names")
		}
		i := uint16(len(strs))
		idx[s] = i
		strs = append(strs, s)
		return i, nil
	}
	type interned struct{ vm, disk uint16 }
	ids := make([]interned, len(records))
	for i, r := range records {
		vm, err := intern(r.VM)
		if err != nil {
			return err
		}
		disk, err := intern(r.Disk)
		if err != nil {
			return err
		}
		ids[i] = interned{vm, disk}
	}

	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var scratch [recordSize]byte
	binary.LittleEndian.PutUint16(scratch[:2], version)
	binary.LittleEndian.PutUint16(scratch[2:4], uint16(len(strs)))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	for _, s := range strs {
		if len(s) > 0xFFFF {
			return fmt.Errorf("trace: name too long")
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(s)))
		if _, err := bw.Write(scratch[:2]); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(len(records)))
	if _, err := bw.Write(scratch[:8]); err != nil {
		return err
	}
	for i, r := range records {
		b := scratch[:]
		binary.LittleEndian.PutUint64(b[0:8], r.Seq)
		binary.LittleEndian.PutUint64(b[8:16], uint64(r.IssueMicros))
		binary.LittleEndian.PutUint64(b[16:24], uint64(r.CompleteMicros))
		binary.LittleEndian.PutUint64(b[24:32], r.LBA)
		binary.LittleEndian.PutUint32(b[32:36], r.Blocks)
		binary.LittleEndian.PutUint16(b[36:38], ids[i].vm)
		binary.LittleEndian.PutUint16(b[38:40], ids[i].disk)
		b[40] = byte(r.Op)
		b[41] = byte(r.Status)
		binary.LittleEndian.PutUint16(b[42:44], r.Outstanding)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) ([]Record, error) { return ReadAll(NewNativeSource(r)) }

// WriteCSV exports records as CSV with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("seq,vm,disk,op,lba,blocks,issue_us,complete_us,latency_us,outstanding,status\n"); err != nil {
		return err
	}
	for _, r := range records {
		op := strings.ReplaceAll(r.Op.String(), ",", ";")
		if _, err := fmt.Fprintf(bw, "%d,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d\n",
			r.Seq, r.VM, r.Disk, op, r.LBA, r.Blocks,
			r.IssueMicros, r.CompleteMicros, r.LatencyMicros(),
			r.Outstanding, byte(r.Status)); err != nil {
			return err
		}
	}
	return bw.Flush()
}
