package trace

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/bits"
)

// Zero-allocation CSV plumbing for the public-trace parsers. The scanner
// hands out lines that alias a reused buffer, and a csvCursor walks each
// line once, decoding numbers in place. What a hostile input can cost is
// bounded: one line holds at most csvMaxLine bytes (longer lines are
// discarded and counted, never an OOM — the same discipline as
// wire.readSized on the push protocol), and each distinct identity a trace
// names costs one small table entry, as any per-disk state must.

const (
	// csvInitialLine is the first allocation for an overflowing line.
	csvInitialLine = 4 << 10
	// csvMaxLine caps per-line memory; longer lines are discarded whole.
	csvMaxLine = 1 << 20
	// csvMaxInterned caps the Alibaba device names deduplicated per parse.
	// It bounds only the name table: past the cap each record mints its own
	// string. Per-disk state (MSRSource's table) is one entry per distinct
	// disk, like every consumer of the records downstream.
	csvMaxInterned = 1 << 16
)

// lineScanner yields one line at a time from a bufio.Reader. The returned
// slice aliases either the reader's internal buffer (common case: no copy,
// no allocation) or the scanner's own overflow buffer, and is valid only
// until the next call.
type lineScanner struct {
	br   *bufio.Reader
	over []byte // overflow buffer for lines longer than br's buffer
	long uint64 // lines discarded for exceeding csvMaxLine
}

func newLineScanner(br *bufio.Reader) *lineScanner { return &lineScanner{br: br} }

// next returns the next line without its terminator, or io.EOF. Lines
// longer than csvMaxLine are discarded (counted in long) and the scan
// moves on; ok=false marks such a discard so callers can skip it without
// mistaking it for an empty line.
func (s *lineScanner) next() (line []byte, ok bool, err error) {
	frag, err := s.br.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(frag) > 0) {
		return trimEOL(frag), true, nil
	}
	if err == io.EOF {
		return nil, false, io.EOF
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	// Long line: accumulate into the overflow buffer with progressive
	// growth, give up past the cap.
	if s.over == nil {
		s.over = make([]byte, 0, csvInitialLine)
	}
	s.over = append(s.over[:0], frag...)
	for {
		frag, err = s.br.ReadSlice('\n')
		keep := len(s.over) <= csvMaxLine
		if keep {
			room := csvMaxLine + 1 - len(s.over)
			if len(frag) < room {
				room = len(frag)
			}
			s.over = append(s.over, frag[:room]...)
		}
		switch err {
		case bufio.ErrBufferFull:
			continue
		case nil, io.EOF:
			if err == io.EOF && len(frag) == 0 && len(s.over) == 0 {
				return nil, false, io.EOF
			}
			if len(s.over) > csvMaxLine {
				s.long++
				return nil, false, nil
			}
			return trimEOL(s.over), true, nil
		default:
			return nil, false, err
		}
	}
}

func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// csvCursor walks one CSV line once, left to right. Each accessor consumes
// one field and the comma after it; consuming the last field moves i past
// the end, so asking for a field the line does not have fails. A failure
// is sticky: the parser reads every field it needs, then tests bad once.
type csvCursor struct {
	line []byte
	i    int // start of the next field; len(line)+1 once the line is used up
	bad  bool
}

// field returns the next field, aliasing the line. Text fields are names
// a few bytes long, where a plain loop beats bytes.IndexByte's call.
func (c *csvCursor) field() []byte {
	if c.i > len(c.line) {
		c.bad = true
		return nil
	}
	from, j := c.i, c.i
	for j < len(c.line) && c.line[j] != ',' {
		j++
	}
	c.i = j + 1
	return c.line[from:j]
}

// number decodes the next field as an unsigned decimal: 1–20 ASCII digits,
// no sign, no separators, at most 2⁶⁴−1. With frac, a ".digits" tail is
// allowed and truncated. Locale variants ("1_000", "1e3", "½") are
// malformed, full stop.
//
// The digits are decoded while scanning for the field's end. While eight
// bytes of the line remain, one SWAR step takes up to eight digits: after
// subtracting '0' from every byte, a digit is 0–9 and anything else has
// its high bit set in x or in x+0x76, so the lowest flagged byte is the
// first non-digit. Borrows and carries only run upward from a non-digit,
// so the digits below it read true. The tail takes one byte at a time.
func (c *csvCursor) number(frac bool) uint64 {
	b, i := c.line, c.i
	var v, over uint64
	n := 0 // digits seen; a used-up line (i > len) sees none
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:]) - 0x3030303030303030
		k := bits.TrailingZeros64((x|(x+0x7676767676767676))&0x8080808080808080) >> 3
		// Shifting the k digits to the top leaves leading zeros below them.
		v, over = mulAdd(v, pow10[k], digits8(x<<(64-8*k)), over)
		n, i = n+k, i+k
		if k < 8 {
			break
		}
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v, over = mulAdd(v, 10, uint64(b[i]-'0'), over)
		n++
	}
	if frac && i < len(b) && b[i] == '.' {
		for i++; i < len(b) && b[i]-'0' <= 9; i++ {
		}
	}
	if n == 0 || n > 20 || over != 0 || (i < len(b) && b[i] != ',') {
		c.bad, c.i = true, len(b)+1
		return 0
	}
	c.i = i + 1
	return v
}

// digits8 folds eight digit values, one per byte with the first digit in
// the lowest byte, into their decimal value: pairs, then quads, then all
// eight, one multiply each.
func digits8(x uint64) uint64 {
	x = (x * (10<<8 + 1)) >> 8 & 0x00ff00ff00ff00ff
	x = (x * (100<<16 + 1)) >> 16 & 0x0000ffff0000ffff
	return (x * (10000<<32 + 1)) >> 32
}

// mulAdd returns v*p + d, with over made non-zero once the true value has
// passed 2⁶⁴−1 (appending digits never brings it back).
func mulAdd(v, p, d, over uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(v, p)
	lo, carry := bits.Add64(lo, d, 0)
	return lo, over | hi | carry
}

var pow10 = [9]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// interner deduplicates the device names AlibabaSource mints, so a
// million records over a dozen devices cost a dozen allocations. The
// m[string(b)] lookup compiles to a no-alloc map probe. Past csvMaxInterned
// distinct names it stops remembering (hostile-input bound) but still
// returns correct strings.
type interner struct {
	m map[string]string
}

func newInterner() *interner { return &interner{m: make(map[string]string)} }

// getPrefixed returns the canonical string prefix+b (e.g. device ids
// rendered as "dev64"), keyed on the raw bytes and minted on first sight.
func (in *interner) getPrefixed(prefix string, b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := prefix + string(b)
	if len(in.m) < csvMaxInterned {
		in.m[string(b)] = s
	}
	return s
}
