package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"vscsistats/internal/core"
)

// The frame layout, integers in the head big-endian:
//
//	offset size field
//	0      4    magic "VSFB"
//	4      1    version (>= 1)
//	5      1    flags (see the flag constants below)
//	6      2    reserved — writers zero, readers ignore
//	8      4    header length
//	12     4    payload length
//	16     ...  header (batchHeader)
//	...    ...  payload: header.Count snapshots, binary (payload.go)
//	...    4    CRC-32C (Castagnoli) of everything before it
//
// Generation 7 (flagKept) is the one this package writes: a binary
// header, the batchHeader fields in appendHeader's order (str and zz as in
// payload.go),
//
//	str(Host) uvarint(Seq) zz(SentUnixNano) uvarint(Count) uvarint(BaseSeq)
//	str(TraceID) zz(CaptureUnixNano) uvarint(Boot) zz(Level) zz(Leaves)
//
// the compact payload, whose deltas leave out the extrema their base
// holds, and a trailer that readFrame checks before any cell is used. A
// mismatch is ErrChecksum, never ErrTruncatedFrame; only segment replay
// reads one as a torn tail, in the newest segment's last frame when it ends
// at EOF. Older generations are refused by name, never misread (DESIGN §8
// upgrades them): a frame without flagKept is generation 6 (every extremum
// written), one without flagCompact generation 5 (every snapshot whole
// behind plain names), one without flagChecked generation 4 (JSON header,
// no trailer), and one without flagBinary the JSON payload of versions 1-3.
//
// Forward compatibility: the head carries the header's length, so a later
// version appends header fields, which a reader skips. Readers accept any
// version >= 1 whose flags are all known, as flags and header carry a
// frame's meaning. Frames concatenate on one stream, one DecodeBatch each.

// Wire format constants.
const (
	// Version is the frame version this package writes: 2 and 3 added
	// header fields, 4 to 7 each a flag below. The number decides nothing.
	Version = 7

	// Bit 0 is retired (it marked the gzip-compressed JSON payload) and is
	// never reused: a pre-removal reader would gunzip whatever it meant.

	// flagDelta marks a delta frame: its snapshots are Snapshot.Sub deltas
	// against the sender's state at header BaseSeq. A pre-delta reader
	// refuses the unknown flag instead of reading intervals as state.
	flagDelta = 1 << 1

	// Each generation since the binary payload adds a flag every frame must
	// carry, so the readers before it refuse the frame as an unknown flag
	// instead of misreading it: flagBinary the binary payload (payload.go),
	// flagChecked generation 5's binary header and CRC-32C trailer,
	// flagCompact generation 6's compact payload, and flagKept generation
	// 7's deltas, which leave out each extremum equal to the base's.
	flagBinary  = 1 << 2
	flagChecked = 1 << 3
	flagCompact = 1 << 4
	flagKept    = 1 << 5

	// knownFlags is the set of flag bits this decoder understands; frames
	// carrying others are rejected rather than misinterpreted.
	knownFlags = flagDelta | flagBinary | flagChecked | flagCompact | flagKept

	// maxHeaderLen and maxPayloadLen bound a frame's declared sizes so a
	// corrupt or hostile length prefix cannot drive a huge allocation.
	maxHeaderLen  = 1 << 20
	maxPayloadLen = 1 << 28

	// maxDecodedLen bounds the memory a payload's snapshots decode to.
	maxDecodedLen = 1 << 30
)

var (
	wireMagic  = [4]byte{'V', 'S', 'F', 'B'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrBadFrame wraps every decode failure, so callers can distinguish a
// malformed frame from transport errors with errors.Is.
var ErrBadFrame = errors.New("fleet: bad frame")

// ErrTruncatedFrame marks the decode failures where the stream ended inside
// a frame: bytes missing, never wrong ones. Every ErrTruncatedFrame is also
// an ErrBadFrame. Log replay relies on the difference: a truncated tail is
// a crash mid-write, truncated and continued from; any other bad frame is
// corruption, and the log refuses to open.
var ErrTruncatedFrame = errors.New("fleet: truncated frame")

// ErrChecksum marks a whole frame whose CRC-32C trailer is not the sum of
// its bytes: they changed after the sender wrote them. It is an ErrBadFrame
// and never an ErrTruncatedFrame.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrBadFrame)

// Batch is one host's worth of snapshots in flight.
type Batch struct {
	// Host identifies the sending host; it is the aggregator's key.
	Host string `json:"host"`
	// Seq increases by one per batch built on the sender; a late retry of
	// a lower one never rolls the aggregator's state backwards.
	Seq uint64 `json:"seq"`
	// SentUnixNano is the sender's wall clock when the batch was built.
	SentUnixNano int64 `json:"sent_unix_nano"`
	// Delta marks an interval-delta batch (the flagDelta bit): Snapshots
	// are Snapshot.Sub deltas against the sender's state at BaseSeq, the
	// acknowledged sequence the receiver must hold exactly, else it asks
	// for a resync; unchanged disks may be omitted. BaseSeq is 0 on fulls.
	Delta   bool   `json:"-"`
	BaseSeq uint64 `json:"-"`
	// Snapshots is the registry's state — cumulative since enable/reset on
	// full batches, interval deltas on delta batches.
	Snapshots []*core.Snapshot `json:"-"`
	// TraceID identifies one push end-to-end: the agent stamps it at
	// capture time and every pipeline stage (encode, push, decode, shard
	// apply, log append, replay) reports against it. Never required.
	TraceID string `json:"-"`
	// CaptureUnixNano is the sender's wall clock when the registry was
	// captured, before delta rendering, encoding and queueing.
	CaptureUnixNano int64 `json:"-"`
	// Boot identifies the sender's incarnation, drawn once per process.
	// A changed Boot means Seq restarted from 1, so the receiver replaces
	// stored state even at a lower sequence: a restarted re-exporter
	// displaces its predecessor instead of reading as a late retry. Zero
	// keeps the plain retry rule.
	Boot uint64 `json:"-"`
	// Level is the sender's height in the federation tree (0 for a leaf
	// agent, 1 + max(ingested levels) for a re-exporter), for level-aware
	// staleness; Leaves is how many leaf hosts its state folds together
	// (0, meaning 1, for a leaf agent).
	Level  int `json:"-"`
	Leaves int `json:"-"`
}

// EncodeBatchBytes renders b as one generation-7 frame in memory. It fails on
// a batch the binary payload cannot carry: one with a null snapshot.
func EncodeBatchBytes(b *Batch) ([]byte, error) {
	flags := byte(flagBinary | flagChecked | flagCompact | flagKept)
	var baseSeq uint64 // meaningless without the flag, so full frames carry 0
	if b.Delta {
		flags |= flagDelta
		baseSeq = b.BaseSeq
	}
	// A sim-shaped snapshot encodes to 150-250 bytes; the guess only has
	// to keep append from growing the frame more than once.
	frame := make([]byte, 16, 16+64+len(b.Host)+len(b.TraceID)+8+320*len(b.Snapshots)+4)
	frame = appendHeader(frame, b, len(b.Snapshots), baseSeq)
	headerLen := len(frame) - 16
	frame, err := appendPayload(frame, b.Snapshots, b.Delta)
	if err != nil {
		return nil, err
	}
	payloadLen := len(frame) - 16 - headerLen
	if headerLen > maxHeaderLen || payloadLen > maxPayloadLen {
		return nil, fmt.Errorf("fleet: header %d or payload %d bytes exceeds the frame limits", headerLen, payloadLen)
	}
	copy(frame[0:4], wireMagic[:])
	frame[4], frame[5] = Version, flags
	binary.BigEndian.PutUint32(frame[8:12], uint32(headerLen))
	binary.BigEndian.PutUint32(frame[12:16], uint32(payloadLen))
	return binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli)), nil
}

// appendHeader renders a binary header: the Batch fields in their
// fixed order, with the snapshot count after SentUnixNano, so a reader can
// size-check before decoding the payload. BaseSeq means something only
// beside flagDelta.
func appendHeader(dst []byte, b *Batch, count int, baseSeq uint64) []byte {
	dst = appendStr(dst, b.Host)
	dst = binary.AppendUvarint(dst, b.Seq)
	dst = binary.AppendVarint(dst, b.SentUnixNano)
	dst = binary.AppendUvarint(dst, uint64(count))
	dst = binary.AppendUvarint(dst, baseSeq)
	dst = appendStr(dst, b.TraceID)
	dst = binary.AppendVarint(dst, b.CaptureUnixNano)
	dst = binary.AppendUvarint(dst, b.Boot)
	dst = binary.AppendVarint(dst, int64(b.Level))
	return binary.AppendVarint(dst, int64(b.Leaves))
}

// header parses what appendHeader wrote into b and returns the count. The
// bytes after the fields it knows are a later generation's, and are ignored.
// A host's name is taken from hosts, or added to it.
func (p *payloadReader) header(b *Batch, hosts map[string]string) (count int) {
	name := p.bytes()
	if b.Host = hosts[string(name)]; b.Host == "" {
		b.Host = string(name)
		if hosts != nil {
			hosts[b.Host] = b.Host
		}
	}
	b.Seq = p.uvarint()
	b.SentUnixNano = p.varint()
	count = int(p.uvarint()) // past MaxInt it turns negative, which decodePayload refuses
	b.BaseSeq = p.uvarint()
	b.TraceID = string(p.bytes())
	b.CaptureUnixNano = p.varint()
	b.Boot = p.uvarint()
	b.Level, b.Leaves = int(p.varint()), int(p.varint())
	return count
}

// badFrame builds an ErrBadFrame-wrapped error.
func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadFrame, fmt.Sprintf(format, args...))
}

// truncatedFrame builds an error matching both ErrBadFrame and
// ErrTruncatedFrame: the stream ended inside a frame.
func truncatedFrame(format string, args ...any) error {
	return fmt.Errorf("%w: %w: %s", ErrBadFrame, ErrTruncatedFrame, fmt.Sprintf(format, args...))
}

// eofErr reports whether err is a flavor of "the stream ended": what
// io.ReadFull returns when a fixed-length region is cut short.
func eofErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// readSized appends exactly n declared bytes read from r to dst, growing
// the buffer chunk by chunk as they arrive: a hostile length prefix may
// claim 256 MiB, and costs one chunk past what was sent. A short read maps
// to ErrTruncatedFrame.
func readSized(r io.Reader, dst []byte, n uint32, what string) ([]byte, error) {
	const chunk = 1 << 20
	start, end := len(dst), len(dst)+int(n)
	for len(dst) < end {
		step := min(end-len(dst), chunk)
		if cap(dst)-len(dst) < step {
			grown := make([]byte, len(dst), min(end, 2*cap(dst)+step))
			copy(grown, dst)
			dst = grown
		}
		m, err := io.ReadFull(r, dst[len(dst):len(dst)+step])
		dst = dst[:len(dst)+m]
		if err != nil {
			if eofErr(err) {
				return nil, truncatedFrame("short %s: %d of %d bytes", what, len(dst)-start, n)
			}
			return nil, badFrame("short %s: %v", what, err)
		}
	}
	return dst, nil
}

// DecodeBatch reads exactly one frame from r. It returns io.EOF when r is
// exhausted before the first byte and an error wrapping ErrBadFrame for
// any malformed frame, ErrTruncatedFrame too if the stream ended inside
// it; it never panics, whatever the input. Declared lengths and counts are
// never trusted for allocation: buffers grow with the bytes read, and the
// count is checked against them. The one failure that is not a bad frame
// is *UnknownLayoutError: a whole frame whose bin layout is another binary
// generation's. A delta is read without its base, so its kept extrema are
// placeholders (core.Snapshot.Kept) until it is applied onto that base.
func DecodeBatch(r io.Reader) (*Batch, error) {
	f, err := readFrame(r, nil)
	if err == nil {
		f.Snapshots, err = decodePayload(f.payload, f.count, f.Delta, nil, false)
	}
	if err != nil {
		return nil, err
	}
	return f.Batch, nil
}

// frame is one whole frame as it was read: the batch its header describes,
// and its bytes. Its snapshots stay bytes until used (see chainPos.apply).
type frame struct {
	*Batch
	count   int               // the header's snapshot count
	raw     []byte            // head, header, payload and trailer
	payload []byte            // the snapshots: raw's payload after its layout id
	hosts   map[string]string // interns host names; nil gives every frame its own
}

// newFrame has room for the head and most deltas behind it.
func newFrame() *frame { return &frame{Batch: new(Batch), raw: make([]byte, 0, 1024)} }

// readFrame reads one whole frame into f (a new one if f is nil), its Batch
// and raw buffer reused, head first, and checks everything but the
// snapshots: DecodeBatch's rules and the trailer, up to the payload's layout
// id. An *UnknownLayoutError comes with the whole frame. Reading into f again
// reads over the frame before (segmentWalker), so payloadReader.header and
// decodePayload copy every name and cell out of it.
func readFrame(r io.Reader, f *frame) (*frame, error) {
	if f == nil {
		f = newFrame()
	}
	raw := f.raw[:16]
	if _, err := io.ReadFull(r, raw); err != nil {
		if err == io.EOF { // no byte read: a clean end of stream
			return nil, io.EOF
		}
		if eofErr(err) {
			return nil, truncatedFrame("short frame head: %v", err)
		}
		return nil, badFrame("short frame head: %v", err)
	}
	if !bytes.Equal(raw[0:4], wireMagic[:]) {
		return nil, badFrame("bad magic %q", raw[0:4])
	}
	version, flags := raw[4], raw[5]
	if version < 1 {
		return nil, badFrame("unsupported version %d", version)
	}
	for _, old := range [...]struct {
		flag byte
		what string
	}{{flagBinary, "pre-binary JSON payload"}, {flagChecked, "generation-4 JSON header"}, {flagCompact, "generation-5 payload"}, {flagKept, "generation-6 payload"}} {
		if flags&old.flag == 0 {
			return nil, badFrame("%s (frame version %d): upgrade it as DESIGN.md §8 describes", old.what, version)
		}
	}
	if flags&^byte(knownFlags) != 0 {
		return nil, badFrame("unknown flags %#x", flags)
	}
	headerLen := binary.BigEndian.Uint32(raw[8:12])
	payloadLen := binary.BigEndian.Uint32(raw[12:16])
	if headerLen > maxHeaderLen || payloadLen > maxPayloadLen {
		return nil, badFrame("header of %d or payload of %d bytes exceeds its limit (%d, %d)", headerLen, payloadLen, maxHeaderLen, maxPayloadLen)
	}
	raw, err := readSized(r, raw, headerLen+payloadLen+4, "frame")
	if err != nil {
		return nil, err
	}
	// The trailer before the header: changed bytes are a checksum error first.
	end := len(raw) - 4
	if want, got := binary.BigEndian.Uint32(raw[end:]), crc32.Checksum(raw[:end], castagnoli); want != got {
		return nil, fmt.Errorf("%w: trailer %#08x, frame sums to %#08x", ErrChecksum, want, got)
	}
	f.raw, *f.Batch = raw, Batch{Delta: flags&flagDelta != 0}
	p := payloadReader{buf: raw[16 : 16+headerLen]}
	f.count = p.header(f.Batch, f.hosts)
	if p.err != nil {
		return nil, p.err
	}
	if !f.Delta { // base_seq means nothing without the flag: decode(encode(b)) == b both ways
		f.BaseSeq = 0
	}
	payload := raw[16+headerLen : end]
	if len(payload) < 8 {
		return nil, badFrame("binary payload of %d bytes has no layout id", len(payload))
	}
	f.payload = payload[8:]
	if id := binary.BigEndian.Uint64(payload); id != layout.id {
		return f, &UnknownLayoutError{Header: f.Batch, LayoutID: id}
	}
	return f, nil
}

// Validate checks what a decoded frame cannot be trusted for and the merge
// path requires: a named host, a delta that builds on an earlier sequence,
// sane federation metadata and no null snapshot. Bin layouts need no check —
// a core.Snapshot has only one.
func (b *Batch) Validate() error {
	if b.Host == "" {
		return errors.New("fleet: batch without host name")
	}
	if b.Delta && b.BaseSeq >= b.Seq {
		return fmt.Errorf("fleet: delta batch base seq %d not below seq %d", b.BaseSeq, b.Seq)
	}
	if b.Level < 0 || b.Leaves < 0 {
		return fmt.Errorf("fleet: negative federation metadata (level %d, leaves %d)", b.Level, b.Leaves)
	}
	if i := slices.Index(b.Snapshots, nil); i >= 0 {
		return fmt.Errorf("fleet: snapshot %d is null", i)
	}
	return nil
}
