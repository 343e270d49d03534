// Package trace implements the paper's virtual SCSI command tracing
// framework: "More thorough analysis may still require an I/O trace so we
// provide a simple virtual SCSI command tracing framework. Since our
// instrumentation is available at the hypervisor, we are able to collect
// command traces for arbitrary, unmodified guest OSes and applications."
//
// A trace is written in one binary format, VSCT version 2: a magic and a
// version, then a stream of frames — a name definition the first time a VM
// or disk name appears, a fixed-size 44-byte record per command — so it can
// be written while commands complete and read back in one pass with O(1)
// state. Writer encodes it and NativeSource decodes it; the version 1 files
// and headerless frame streams older builds wrote are not read (DESIGN.md
// §8 says how to upgrade them). Public block traces (MSR Cambridge,
// Alibaba) are read as CSV, and any trace exports to CSV for offline
// tooling.
package trace

import (
	"bufio"
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

// The VSCT format; Writer documents its layout.
const (
	magic      = "VSCT"
	version    = 2
	recordSize = 44 // one command, little endian
)

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("trace: bad magic (not a vSCSI trace)")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrCorrupt    = errors.New("trace: corrupt stream")
)

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
