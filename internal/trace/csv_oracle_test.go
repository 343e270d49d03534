package trace

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"vscsistats/internal/scsi"
)

// The split-then-parse CSV readers the csvCursor and the chunked reader
// replaced, kept as the oracle: scan one line at a time off a bufio.Reader,
// split the line on every comma, parse each numeric field with a serial
// checked loop, intern the names, keep a heap per (VM, disk). The sources
// must accept exactly what these accepted and emit the same records.

// csvInitialLine is the first allocation for an overflowing line.
const csvInitialLine = 4 << 10

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

// csvMaxFields caps the fields the oracle splits per line; trailing extras
// stay in the last field.
const csvMaxFields = 12

func splitComma(line []byte, fields [][]byte) [][]byte {
	fields = fields[:0]
	for len(fields) < csvMaxFields-1 {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			break
		}
		fields = append(fields, line[:i])
		line = line[i+1:]
	}
	return append(fields, line)
}

func parseU64(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseScaledU64 parses "1234" or "1234.56" in 1/scale units, truncated.
func parseScaledU64(b []byte, scale uint64) (uint64, bool) {
	dot := bytes.IndexByte(b, '.')
	if dot < 0 {
		v, ok := parseU64(b)
		if !ok || v > (1<<64-1)/scale {
			return 0, false
		}
		return v * scale, true
	}
	whole, ok := parseU64(b[:dot])
	if !ok || whole > (1<<64-1)/scale {
		return 0, false
	}
	var fv, fs uint64 = 0, 1
	for _, c := range b[dot+1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		if fs < scale {
			fv = fv*10 + uint64(c-'0')
			fs *= 10
		}
	}
	return whole*scale + fv*(scale/fs), true
}

// The oracle's number parsers are checked on their own, so a fuzz
// disagreement with the cursor points at the cursor.

func TestParseU64(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"18446744073709551615", 1<<64 - 1, true},
		{"18446744073709551616", 0, false}, // overflow
		{"", 0, false},
		{"-1", 0, false},
		{"1_000", 0, false},
		{"1e3", 0, false},
		{"½", 0, false},
		{" 1", 0, false},
		{"123456789012345678901", 0, false}, // 21 digits
	}
	for _, c := range cases {
		got, ok := parseU64([]byte(c.in))
		if got != c.want || ok != c.ok {
			t.Errorf("parseU64(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestParseScaledU64(t *testing.T) {
	cases := []struct {
		in    string
		scale uint64
		want  uint64
		ok    bool
	}{
		{"1234", 1000, 1234000, true},
		{"1234.5", 1000, 1234500, true},
		{"1234.5678", 1000, 1234567, true}, // truncates below resolution
		{"1234.", 1000, 1234000, true},
		{"7.25", 1, 7, true},
		{"1,5", 1000, 0, false}, // locale comma splits fields, never parses
		{"1.5e3", 1000, 0, false},
		{".5", 1000, 0, false}, // no whole part
		{"1.2.3", 1000, 0, false},
		{"18446744073709551615", 1000, 0, false}, // scaled overflow
	}
	for _, c := range cases {
		got, ok := parseScaledU64([]byte(c.in), c.scale)
		if got != c.want || ok != c.ok {
			t.Errorf("parseScaledU64(%q,%d) = %d,%v want %d,%v", c.in, c.scale, got, ok, c.want, c.ok)
		}
	}
}

type oracleInterner map[string]string

func (in oracleInterner) get(b []byte) string { return in.getPrefixed("", b) }

func (in oracleInterner) getPrefixed(prefix string, b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := prefix + string(b)
	if len(in) < csvMaxInterned {
		in[string(b)] = s
	}
	return s
}

// oracleCSV is the old MSR (msr=true) or Alibaba line reader.
type oracleCSV struct {
	msr       bool
	sc        *lineScanner
	fields    [][]byte
	vms       oracleInterner
	disks     oracleInterner
	inflight  map[diskKey]*completionHeap
	base, seq uint64
	haveBase  bool
	bad       uint64
}

func newOracleCSV(msr bool, r io.Reader) *oracleCSV {
	return &oracleCSV{
		msr: msr, sc: newLineScanner(bufio.NewReader(r)),
		vms: oracleInterner{}, disks: oracleInterner{}, inflight: map[diskKey]*completionHeap{},
	}
}

func (s *oracleCSV) BadLines() uint64 { return s.bad + s.sc.long }

func (s *oracleCSV) Next(rec *Record) error {
	for {
		line, ok, err := s.sc.next()
		if err != nil {
			return err
		}
		if !ok || len(line) == 0 {
			continue
		}
		parse := s.alibabaLine
		if s.msr {
			parse = s.msrLine
		}
		if parse(line, rec) {
			return nil
		}
		s.bad++
	}
}

func (s *oracleCSV) msrLine(line []byte, rec *Record) bool {
	f := splitComma(line, s.fields)
	s.fields = f
	if len(f) < 7 || len(f[1]) == 0 {
		return false
	}
	ts, ok := parseScaledU64(f[0], 1)
	if !ok {
		return false
	}
	var op scsi.OpCode
	switch {
	case eqFoldBytes(f[3], "Read"):
		op = scsi.OpRead16
	case eqFoldBytes(f[3], "Write"):
		op = scsi.OpWrite16
	default:
		return false
	}
	offset, ok1 := parseU64(f[4])
	size, ok2 := parseU64(f[5])
	resp, ok3 := parseScaledU64(f[6], 1)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	if !s.haveBase {
		s.base, s.haveBase = ts, true
	}
	if ts < s.base {
		return false
	}
	issue := int64((ts - s.base) / 10)
	latency := int64(resp / 10)
	vm := s.vms.get(f[1])
	disk := s.disks.getPrefixed("disk", f[2])
	key := diskKey{vm, disk}
	h := s.inflight[key]
	if h == nil {
		h = &completionHeap{}
		s.inflight[key] = h
	}
	h.sweep(issue)
	outstanding := min(h.len(), 0xffff)
	h.push(issue + latency)
	*rec = Record{
		Seq: s.seq, IssueMicros: issue, CompleteMicros: issue + latency,
		VM: vm, Disk: disk, Op: op, LBA: offset / 512, Blocks: uint32((size + 511) / 512),
		Outstanding: uint16(outstanding), Status: scsi.StatusGood,
	}
	s.seq++
	return true
}

func (s *oracleCSV) alibabaLine(line []byte, rec *Record) bool {
	f := splitComma(line, s.fields)
	s.fields = f
	if len(f) < 5 || len(f[0]) == 0 {
		return false
	}
	var op scsi.OpCode
	switch {
	case eqFoldBytes(f[1], "R"):
		op = scsi.OpRead16
	case eqFoldBytes(f[1], "W"):
		op = scsi.OpWrite16
	default:
		return false
	}
	offset, ok1 := parseU64(f[2])
	length, ok2 := parseU64(f[3])
	ts, ok3 := parseScaledU64(f[4], 1)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	if !s.haveBase {
		s.base, s.haveBase = ts, true
	}
	if ts < s.base {
		return false
	}
	*rec = Record{
		Seq: s.seq, IssueMicros: int64(ts - s.base), CompleteMicros: int64(ts - s.base),
		VM: s.vms.getPrefixed("dev", f[0]), Disk: "blk0", Op: op,
		LBA: offset / 512, Blocks: uint32((length + 511) / 512), Status: scsi.StatusGood,
	}
	s.seq++
	return true
}

// csvSource is what both CSV sources offer.
type csvSource interface {
	RecordSource
	BadLines() uint64
	reader() *csvReader
}

func (s *MSRSource) reader() *csvReader     { return s.in }
func (s *AlibabaSource) reader() *csvReader { return s.in }

// newCSVSource opens r as an MSR or an Alibaba source whose chunks read
// chunkSize bytes before the cut (0 keeps csvChunkSize).
func newCSVSource(msr bool, r io.Reader, chunkSize int) csvSource {
	var src csvSource = NewAlibabaSource(bufio.NewReader(r))
	if msr {
		src = NewMSRSource(bufio.NewReader(r))
	}
	if chunkSize > 0 {
		src.reader().lines.size = chunkSize
	}
	return src
}

// csvTestChunkSizes cut a short input after every line (size 1) and move
// the cuts across each line; 0 is the shipped size.
var csvTestChunkSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 31, 64, 200, 0}

// requireSameAsOracle reads got and the oracle over the same bytes up to
// the first error: the same records, every field included, the same error
// (io.EOF or the reader's), and the same BadLines count.
func requireSameAsOracle(t *testing.T, want *oracleCSV, got csvSource) {
	t.Helper()
	for i := 0; ; i++ {
		var g, w Record
		gerr, werr := got.Next(&g), want.Next(&w)
		if gerr != werr {
			t.Fatalf("record %d: err %v, oracle %v", i, gerr, werr)
		}
		if gerr != nil {
			break
		}
		if g != w {
			t.Fatalf("record %d:\ngot    %+v\noracle %+v", i, g, w)
		}
	}
	if got.BadLines() != want.BadLines() {
		t.Fatalf("BadLines = %d, oracle %d", got.BadLines(), want.BadLines())
	}
}

// requireSameAsOracleAtEveryChunkSize checks data at each chunk size.
func requireSameAsOracleAtEveryChunkSize(t *testing.T, data []byte, msr bool) {
	t.Helper()
	for _, size := range csvTestChunkSizes {
		requireSameAsOracle(t, newOracleCSV(msr, bytes.NewReader(data)), newCSVSource(msr, bytes.NewReader(data), size))
	}
}

// csvEdgeSeeds are lines whose numeric fields end on and around 8-byte
// boundaries — where the SWAR step hands over to the byte loop — and lines
// shorter than eight bytes, in both dialects' field layouts.
func csvEdgeSeeds(msr bool) [][]byte {
	var seeds [][]byte
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 20, 21} {
		num := strings.Repeat("9", n)
		zeros := strings.Repeat("0", n-1) + "7"
		line := "64,R," + num + "," + zeros + "," + num + "\n"
		if msr {
			line = num + ",h,0,Read," + zeros + "," + num + "," + num + "\n"
		}
		seeds = append(seeds, []byte(line), []byte(strings.TrimSuffix(line, "\n")))
	}
	return append(seeds, []byte("1,h,0,R\n"), []byte("1,R,2,3"), []byte("9.\n"), []byte(""))
}

func FuzzMSRMatchesOracle(f *testing.F) {
	for _, s := range [][]byte{
		[]byte(msrSample),
		[]byte("1000,host,0,Read,0,512,10\n1000,host,0,Wri"),
		[]byte("99999999999999999999999999,h,0,Read,18446744073709551615,18446744073709551615,1\n"),
		[]byte("1000,host,0,Read,1.5,2,5,extra,fields,beyond,the,cap,here\n"),
		[]byte("1000;host;0;Read;0;512;10\n1000\thost\t0\tRead\t0\t512\t10\n"),
		[]byte("1000,host,0,Read,0,512,1,5\r\n\r\n,,,,,,\n"),
		[]byte(msrSlashIdentities),
		[]byte("128166372003061629,web,0,Read,18446744073709551616,4096,1.\n1281663720030616/9,web,1,write,00000000000000000001,0,3:\n"),
	} {
		f.Add(s)
	}
	for _, s := range csvEdgeSeeds(true) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { requireSameAsOracleAtEveryChunkSize(t, data, true) })
}

func FuzzAlibabaMatchesOracle(f *testing.F) {
	for _, s := range [][]byte{
		[]byte(alibabaSample),
		[]byte("64,R,4096,1024,10000"),
		[]byte("64,R,4096,1024\n64,W,0,0,0\n64,X,1,1,1\n"),
		[]byte("١٢٣,R,0,512,1000\n64,R,0,512,1٫5\n"),
		[]byte(",,,,\n0,R,,,-5\n"),
	} {
		f.Add(s)
	}
	for _, s := range csvEdgeSeeds(false) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { requireSameAsOracleAtEveryChunkSize(t, data, false) })
}
