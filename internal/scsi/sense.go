package scsi

import "fmt"

// SenseKey is the coarse error class carried in sense data.
type SenseKey byte

// Sense keys used by the emulation.
const (
	SenseNone           SenseKey = 0x0
	SenseNotReady       SenseKey = 0x2
	SenseMediumError    SenseKey = 0x3
	SenseHardwareError  SenseKey = 0x4
	SenseIllegalRequest SenseKey = 0x5
	SenseUnitAttention  SenseKey = 0x6
	SenseAbortedCommand SenseKey = 0xB
)

// String names the sense key.
func (k SenseKey) String() string {
	switch k {
	case SenseNone:
		return "NO SENSE"
	case SenseNotReady:
		return "NOT READY"
	case SenseMediumError:
		return "MEDIUM ERROR"
	case SenseHardwareError:
		return "HARDWARE ERROR"
	case SenseIllegalRequest:
		return "ILLEGAL REQUEST"
	case SenseUnitAttention:
		return "UNIT ATTENTION"
	case SenseAbortedCommand:
		return "ABORTED COMMAND"
	default:
		return fmt.Sprintf("SENSE(0x%X)", byte(k))
	}
}

// Sense is the sense data of a failed command: key plus additional sense code/qualifier.
type Sense struct {
	Key  SenseKey
	ASC  byte // additional sense code
	ASCQ byte // additional sense code qualifier
}

// Common ASC/ASCQ pairs.
var (
	SenseLBAOutOfRange   = Sense{Key: SenseIllegalRequest, ASC: 0x21, ASCQ: 0x00}
	SenseInvalidFieldCDB = Sense{Key: SenseIllegalRequest, ASC: 0x24, ASCQ: 0x00}
	SenseUnrecoveredRead = Sense{Key: SenseMediumError, ASC: 0x11, ASCQ: 0x00}
	SenseWriteFault      = Sense{Key: SenseMediumError, ASC: 0x03, ASCQ: 0x00}
)

// String renders the sense triple.
func (s Sense) String() string {
	return fmt.Sprintf("%s asc=%02Xh ascq=%02Xh", s.Key, s.ASC, s.ASCQ)
}

// IsZero reports whether s carries no error.
func (s Sense) IsZero() bool { return s == Sense{} }
