// Package scsi is the virtual SCSI layer's command vocabulary: the opcodes
// of the 6/10/12/16-byte read/write forms and the common non-I/O commands,
// the typed Command every input issues, status codes and sense data.
//
// The paper's technique observes guest I/O at the hypervisor's SCSI
// emulation layer and needs only a chokepoint that sees each command's
// issue and completion ("For the purposes of this paper we deal with the
// SCSI protocol but the technique is not exclusive to SCSI."), so commands
// arrive already decoded and no CDB byte form exists here.
package scsi

import "fmt"

// SectorSize is the logical block size in bytes. The paper: "A logical block
// is a unit of space (512 bytes)."
const SectorSize = 512

// OpCode is a SCSI operation code (the first byte of its CDB form).
type OpCode byte

// Operation codes the virtual SCSI layer names.
const (
	OpTestUnitReady      OpCode = 0x00
	OpRequestSense       OpCode = 0x03
	OpRead6              OpCode = 0x08
	OpWrite6             OpCode = 0x0A
	OpInquiry            OpCode = 0x12
	OpModeSense6         OpCode = 0x1A
	OpReadCapacity10     OpCode = 0x25
	OpRead10             OpCode = 0x28
	OpWrite10            OpCode = 0x2A
	OpSynchronizeCache10 OpCode = 0x35
	OpModeSense10        OpCode = 0x5A
	OpRead16             OpCode = 0x88
	OpWrite16            OpCode = 0x8A
	OpReadCapacity16     OpCode = 0x9E
	OpReportLuns         OpCode = 0xA0
	OpRead12             OpCode = 0xA8
	OpWrite12            OpCode = 0xAA
)

var opNames = map[OpCode]string{
	OpTestUnitReady:      "TEST UNIT READY",
	OpRequestSense:       "REQUEST SENSE",
	OpRead6:              "READ(6)",
	OpWrite6:             "WRITE(6)",
	OpInquiry:            "INQUIRY",
	OpModeSense6:         "MODE SENSE(6)",
	OpReadCapacity10:     "READ CAPACITY(10)",
	OpRead10:             "READ(10)",
	OpWrite10:            "WRITE(10)",
	OpSynchronizeCache10: "SYNCHRONIZE CACHE(10)",
	OpModeSense10:        "MODE SENSE(10)",
	OpRead16:             "READ(16)",
	OpWrite16:            "WRITE(16)",
	OpReadCapacity16:     "READ CAPACITY(16)",
	OpReportLuns:         "REPORT LUNS",
	OpRead12:             "READ(12)",
	OpWrite12:            "WRITE(12)",
}

// String returns the T10 name of the opcode, or a hex form if unknown.
func (op OpCode) String() string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("OPCODE(0x%02X)", byte(op))
}

// IsRead reports whether op is a data-in block read.
func (op OpCode) IsRead() bool {
	return op == OpRead6 || op == OpRead10 || op == OpRead12 || op == OpRead16
}

// IsWrite reports whether op is a data-out block write.
func (op OpCode) IsWrite() bool {
	return op == OpWrite6 || op == OpWrite10 || op == OpWrite12 || op == OpWrite16
}

// IsBlockIO reports whether op transfers logical blocks (a read or write).
// Only these commands feed the workload histograms.
func (op OpCode) IsBlockIO() bool { return op.IsRead() || op.IsWrite() }

// Status is a SCSI status byte returned at command completion.
type Status byte

// Status codes.
const (
	StatusGood           Status = 0x00
	StatusCheckCondition Status = 0x02
	StatusBusy           Status = 0x08
	StatusTaskSetFull    Status = 0x28
)

// String names the status code.
func (s Status) String() string {
	switch s {
	case StatusGood:
		return "GOOD"
	case StatusCheckCondition:
		return "CHECK CONDITION"
	case StatusBusy:
		return "BUSY"
	case StatusTaskSetFull:
		return "TASK SET FULL"
	default:
		return fmt.Sprintf("STATUS(0x%02X)", byte(s))
	}
}

// Command is one guest command: operation, starting LBA and transfer length
// in logical blocks. Non-I/O commands have LBA and Blocks of zero (except
// READ CAPACITY(16), which ignores them too).
type Command struct {
	Op     OpCode
	LBA    uint64
	Blocks uint32
}

// Bytes returns the transfer length in bytes.
func (c Command) Bytes() int64 { return int64(c.Blocks) * SectorSize }

// LastLBA returns the last logical block touched by the command. For
// zero-length commands it returns the starting LBA.
func (c Command) LastLBA() uint64 {
	if c.Blocks == 0 {
		return c.LBA
	}
	return c.LBA + uint64(c.Blocks) - 1
}

// String renders the command for traces and logs.
func (c Command) String() string {
	if c.Op.IsBlockIO() {
		return fmt.Sprintf("%s lba=%d blocks=%d", c.Op, c.LBA, c.Blocks)
	}
	return c.Op.String()
}

// Read returns a read command for the given extent.
func Read(lba uint64, blocks uint32) Command { return Command{Op: OpRead10, LBA: lba, Blocks: blocks} }

// Write returns a write command for the given extent.
func Write(lba uint64, blocks uint32) Command {
	return Command{Op: OpWrite10, LBA: lba, Blocks: blocks}
}
