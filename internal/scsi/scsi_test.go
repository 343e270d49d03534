package scsi

import "testing"

func TestDecodeRead10(t *testing.T) {
	c := Read(0x1000, 8)
	if c.Op != OpRead10 || c.LBA != 0x1000 || c.Blocks != 8 {
		t.Errorf("got %+v", c)
	}
	if !c.Op.IsRead() || c.Op.IsWrite() || !c.Op.IsBlockIO() {
		t.Error("classification wrong for READ(10)")
	}
	if c.Bytes() != 8*512 {
		t.Errorf("Bytes = %d", c.Bytes())
	}
	if c.LastLBA() != 0x1007 {
		t.Errorf("LastLBA = %d", c.LastLBA())
	}
}

func TestDecodeWrite16(t *testing.T) {
	c := Command{Op: OpWrite16, LBA: 0x01000000000000FF, Blocks: 0x40}
	if !c.Op.IsWrite() || c.Op.IsRead() || !c.Op.IsBlockIO() {
		t.Error("WRITE(16) not classified as write")
	}
}

func TestDecodeNonIO(t *testing.T) {
	for _, op := range []OpCode{OpTestUnitReady, OpInquiry, OpReportLuns, OpReadCapacity10, OpSynchronizeCache10} {
		if op.IsBlockIO() || op.IsRead() || op.IsWrite() {
			t.Errorf("non-I/O op %v classified as block I/O", op)
		}
	}
}

func TestOpCodeStrings(t *testing.T) {
	if OpRead10.String() != "READ(10)" {
		t.Errorf("got %q", OpRead10)
	}
	if OpCode(0xEE).String() != "OPCODE(0xEE)" {
		t.Errorf("got %q", OpCode(0xEE))
	}
	if StatusGood.String() != "GOOD" || StatusCheckCondition.String() != "CHECK CONDITION" {
		t.Error("status names wrong")
	}
	if Status(0x77).String() != "STATUS(0x77)" {
		t.Errorf("got %q", Status(0x77))
	}
}

func TestCommandString(t *testing.T) {
	if got := Read(100, 8).String(); got != "READ(10) lba=100 blocks=8" {
		t.Errorf("got %q", got)
	}
	if got := (Command{Op: OpInquiry}).String(); got != "INQUIRY" {
		t.Errorf("got %q", got)
	}
}

func TestSenseStrings(t *testing.T) {
	if !(Sense{}).IsZero() {
		t.Error("zero sense should be zero")
	}
	if SenseLBAOutOfRange.IsZero() {
		t.Error("nonzero sense reported zero")
	}
	if SenseIllegalRequest.String() != "ILLEGAL REQUEST" {
		t.Errorf("got %q", SenseIllegalRequest)
	}
	if SenseKey(0xF).String() != "SENSE(0xF)" {
		t.Errorf("got %q", SenseKey(0xF))
	}
}

func TestLastLBAZeroBlocks(t *testing.T) {
	c := Command{Op: OpRead10, LBA: 50, Blocks: 0}
	if c.LastLBA() != 50 {
		t.Errorf("LastLBA = %d, want 50", c.LastLBA())
	}
}
