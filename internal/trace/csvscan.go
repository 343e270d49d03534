package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/bits"
	"runtime"

	"vscsistats/internal/scsi"
)

// CSV plumbing for the public-trace parsers. A csvReader cuts the input
// into chunks of whole lines and parses each chunk on its own goroutine
// into rows: all a line holds that no earlier line decides. The source's
// Next does the rest, in order. A csvCursor walks each line once, decoding
// numbers in place. What a hostile input can cost is bounded: a line holds
// at most csvMaxLine bytes (longer ones are discarded and counted, never
// an OOM, like wire.readSized on the push protocol), a source at most
// csvMaxChunks chunks, and each distinct identity a trace names one small
// table entry, as any per-disk state must.

const (
	// csvChunkSize is how much a chunk reads before it is cut at its last
	// newline.
	csvChunkSize = 64 << 10
	// csvMaxLine caps per-line memory; longer lines are discarded whole.
	csvMaxLine = 1 << 20
	// csvMaxChunks caps the chunks a source holds: the one Next reads
	// plus those parsing ahead.
	csvMaxChunks = 4
	// csvMaxInterned caps the Alibaba device names deduplicated per parse.
	// It bounds only the name table: past the cap each record mints its own
	// string. Per-disk state (MSRSource's table) is one entry per distinct
	// disk, like every consumer of the records downstream.
	csvMaxInterned = 1 << 16
)

// csvRow is one well-formed line, parsed. from:to are the offsets of the
// line's names in the chunk — MSR's "host,disk" bytes with split at the
// comma, Alibaba's device_id — so a row holds no pointer.
type csvRow struct {
	ts, off, size, resp   uint64
	from, split, to, hash uint32 // hash: of the names, if the dialect uses one
	bad                   uint32 // lines skipped between the previous row and this one
	op                    scsi.OpCode
}

// csvLineParser parses the line b[at:] into r and reports whether it is
// well-formed. It may read nothing outside b and keep no state, so chunks
// parse in any order on any goroutine.
type csvLineParser func(b []byte, at int, r *csvRow) bool

// csvChunk is one run of whole lines and its rows. A source recycles its
// chunks, buffers and row slices included, from fill to fill.
type csvChunk struct {
	buf   []byte // the chunk's memory
	lines []byte // the whole lines of this fill, a prefix of buf
	rows  []csvRow
	bad   uint64        // lines skipped after the last row
	long  uint64        // over-long lines discarded just before lines
	err   error         // ends the stream once these lines are delivered
	done  chan struct{} // signalled when rows is parsed; nil parses inline
}

// parse splits c.lines at newlines, drops each line's "\r\n" or "\n" and
// parses every non-blank line into a row. The over-long lines before the
// chunk count with its first row.
func (c *csvChunk) parse(parseLine csvLineParser) {
	b, rows, bad := c.lines, c.rows[:0], uint32(c.long)
	for at := 0; at < len(b); {
		end, next := len(b), len(b)
		if i := bytes.IndexByte(b[at:], '\n'); i >= 0 {
			end, next = at+i, at+i+1
		}
		if end > at && b[end-1] == '\r' {
			end--
		}
		if end > at {
			rows = append(rows, csvRow{})
			if r := &rows[len(rows)-1]; parseLine(b[:end], at, r) {
				r.bad, bad = bad, 0
			} else {
				rows, bad = rows[:len(rows)-1], bad+1
			}
		}
		at = next
	}
	c.rows, c.bad = rows, uint64(bad)
}

// lineChunker cuts a reader into chunks of whole lines. The partial line
// after a chunk's last newline is carried into the next chunk; a line
// longer than csvMaxLine is skipped to its newline and counted in the
// chunk that follows it.
type lineChunker struct {
	r    io.Reader
	size int    // a chunk reads this many bytes before it is cut
	tail []byte // the partial line after the last cut
	skip bool   // discarding the rest of an over-long line
	err  error  // io.EOF or the reader's error, once seen
}

// fill reads the next chunk into c. At io.EOF the last line needs no
// newline; at any other error the partial line before it is lost, and
// c.err reports the error after c's lines.
func (k *lineChunker) fill(c *csvChunk) {
	buf := append(c.buf[:0], k.tail...) // the tail may lie in c.buf: append copies as memmove does
	if cap(buf) < k.size {
		buf = append(make([]byte, 0, k.size), buf...)
	}
	k.tail = nil
	c.long, c.err = 0, nil
	for {
		if k.skip {
			if i := bytes.IndexByte(buf, '\n'); i >= 0 {
				c.long++
				k.skip = false
				buf = append(buf[:0], buf[i+1:]...)
			} else {
				buf = buf[:0]
			}
		}
		if len(buf) == cap(buf) {
			if len(buf) > csvMaxLine && bytes.IndexByte(buf[:csvMaxLine], '\n') < 0 {
				// The first line, newline included, is over the cap.
				k.skip = true
				buf = append(buf[:0], buf[csvMaxLine:]...)
				continue
			}
			if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
				c.buf, c.lines, k.tail = buf, buf[:i+1], buf[i+1:]
				return
			}
			// One partial line fills the buffer: grow it, at most to the
			// cap plus the byte that proves a line over it.
			buf = append(make([]byte, 0, min(2*len(buf), csvMaxLine+1)), buf...)
		}
		if k.err != nil {
			break
		}
		n, err := k.r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		k.err = err
	}
	c.buf, c.lines, c.err = buf, buf, k.err
	if k.err != io.EOF {
		c.lines = buf[:bytes.LastIndexByte(buf, '\n')+1]
	} else if k.skip {
		c.long++ // an over-long last line without its newline
		k.skip = false
	}
}

// csvReader is the source side of both CSV dialects: it keeps up to
// min(GOMAXPROCS, csvMaxChunks) chunks, each parsing on its own goroutine
// while Next reads the oldest one, and hands out rows in line order. A
// parse goroutine owns its chunk until it signals done and never waits on
// the reader, so a source abandoned mid-stream leaves no goroutine behind
// once its chunks finish, and needs no Close. With GOMAXPROCS 1 the one
// chunk parses inline.
type csvReader struct {
	lines     lineChunker
	parseLine csvLineParser
	chunks    int         // chunks the reader may hold
	queue     []*csvChunk // filled and parsing, oldest first
	cur       *csvChunk   // the chunk rows are read from
	pos       int         // cur's next row
	ended     bool        // a chunk with the stream's error is queued
	bad       uint64      // lines skipped so far: what BadLines reports
}

func newCSVReader(r io.Reader, parseLine csvLineParser) *csvReader {
	return &csvReader{lines: lineChunker{r: r, size: csvChunkSize}, parseLine: parseLine,
		chunks: min(runtime.GOMAXPROCS(0), csvMaxChunks)}
}

// next returns the next well-formed row and the lines its offsets index,
// or the error that ends the stream once every row before it is out.
func (r *csvReader) next() (*csvRow, []byte, error) {
	for r.cur == nil || r.pos == len(r.cur.rows) {
		if c := r.cur; c != nil {
			r.bad, c.bad = r.bad+c.bad, 0
			if c.err != nil {
				return nil, nil, c.err
			}
		}
		r.advance()
	}
	row := &r.cur.rows[r.pos]
	r.pos++
	r.bad += uint64(row.bad)
	return row, r.cur.lines, nil
}

// advance recycles the chunk just read into a new fill at the back of the
// queue, then waits for the oldest chunk to finish parsing.
func (r *csvReader) advance() {
	if r.cur == nil {
		for len(r.queue) < r.chunks && !r.ended {
			c := &csvChunk{}
			if r.chunks > 1 {
				c.done = make(chan struct{}, 1)
			}
			r.start(c)
		}
	} else if !r.ended {
		r.start(r.cur)
	}
	c := r.queue[0]
	r.queue = append(r.queue[:0], r.queue[1:]...)
	if c.done != nil {
		<-c.done
	}
	r.cur, r.pos = c, 0
}

func (r *csvReader) start(c *csvChunk) {
	r.lines.fill(c)
	r.ended = c.err != nil
	r.queue = append(r.queue, c)
	if c.done == nil {
		c.parse(r.parseLine)
		return
	}
	parseLine := r.parseLine
	go func() {
		c.parse(parseLine)
		c.done <- struct{}{}
	}()
}

// nextRecord fills rec from the next row that record accepts; a row it
// rejects is a bad line too.
func (r *csvReader) nextRecord(rec *Record, record func(*csvRow, []byte, *Record) bool) error {
	for {
		row, lines, err := r.next()
		if err != nil {
			return err
		}
		if record(row, lines, rec) {
			return nil
		}
		r.bad++
	}
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
