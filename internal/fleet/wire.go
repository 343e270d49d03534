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
// Generation 6 (flagCompact) is the one this package writes: a binary
// header, the batchHeader fields in appendHeader's order (str and zz as in
// payload.go),
//
//	str(Host) uvarint(Seq) zz(SentUnixNano) uvarint(Count) uvarint(BaseSeq)
//	str(TraceID) zz(CaptureUnixNano) uvarint(Boot) zz(Level) zz(Leaves)
//
// the compact payload, and a trailer that readFrame checks before any cell
// is used. A mismatch is ErrChecksum, never ErrTruncatedFrame; only segment
// replay reads one as a torn tail, in the newest segment's last frame when
// it ends at EOF. Older generations are refused by name, never misread
// (DESIGN §8 upgrades them): a frame without flagCompact is generation 5
// (every snapshot whole behind plain names), one without flagChecked is
// generation 4 (JSON header, no trailer), and one without flagBinary holds
// the pre-binary JSON payload of versions 1-3.
//
// Forward compatibility: the head carries the header's length, so a later
// version appends header fields and a reader ignores the bytes after the
// ones it knows. Readers accept any version >= 1 whose flags are all known —
// a frame's meaning is carried by magic + flags + header, never by the
// version alone. Frames concatenate on one stream, one DecodeBatch each.

// Wire format constants.
const (
	// Version is the frame version this package writes. Versions 2 and 3
	// added header fields, 4 the binary payload (flagBinary), 5 the binary
	// header and trailer (flagChecked), 6 the compact payload
	// (flagCompact); the number itself decides nothing.
	Version = 6

	// Bit 0 is retired (it marked the gzip-compressed JSON payload) and is
	// never reused: a pre-removal reader would gunzip whatever it meant.

	// flagDelta marks a delta frame: the payload's snapshots are interval
	// deltas (Snapshot.Sub) against the sender's state at header BaseSeq,
	// not cumulative state. A decoder that does not understand this bit
	// must reject the frame — misreading a delta as full state silently
	// truncates every histogram — which is exactly what the unknown-flag
	// check below does for pre-delta readers.
	flagDelta = 1 << 1

	// flagBinary marks the binary payload encoding (payload.go), which every
	// frame must carry. Pre-binary readers reject it as an unknown flag
	// instead of feeding varints to a JSON parser.
	flagBinary = 1 << 2

	// flagChecked marks generation 5: a binary header and a CRC-32C
	// trailer, which every frame must carry. Generation-4 readers reject it
	// as an unknown flag instead of parsing varints as JSON.
	flagChecked = 1 << 3

	// flagCompact marks generation 6, the compact payload (payload.go),
	// which every frame this package writes carries. Generation-5 readers
	// reject it as an unknown flag instead of misreading the snapshots.
	flagCompact = 1 << 4

	// knownFlags is the set of flag bits this decoder understands; frames
	// carrying others are rejected rather than misinterpreted.
	knownFlags = flagDelta | flagBinary | flagChecked | flagCompact

	// maxHeaderLen and maxPayloadLen bound a frame's declared sizes so a
	// corrupt or hostile length prefix cannot drive a huge allocation.
	maxHeaderLen  = 1 << 20
	maxPayloadLen = 1 << 28

	// maxDecodedLen bounds what the snapshots a payload's count would
	// allocate may take in memory.
	maxDecodedLen = 1 << 30
)

var (
	wireMagic  = [4]byte{'V', 'S', 'F', 'B'}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrBadFrame wraps every decode failure, so callers can distinguish a
// malformed frame from transport errors with errors.Is.
var ErrBadFrame = errors.New("fleet: bad frame")

// ErrTruncatedFrame marks the subset of decode failures where the stream
// simply ended inside a frame — the head, header or payload was cut short
// by EOF rather than carrying bytes that contradict the format. Every
// ErrTruncatedFrame is also an ErrBadFrame (errors.Is matches both). The
// distinction is what makes log replay safe: a truncated tail means "crash
// mid-write, truncate here and continue", while any other bad frame means
// "corruption, refuse to start". The two are genuinely different on the
// wire — truncation never produces wrong bytes, only missing ones.
var ErrTruncatedFrame = errors.New("fleet: truncated frame")

// ErrChecksum marks a whole frame whose CRC-32C trailer is not the sum of
// its bytes: they changed after the sender wrote them. It is an ErrBadFrame
// and never an ErrTruncatedFrame.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrBadFrame)

// Batch is one host's worth of snapshots in flight.
type Batch struct {
	// Host identifies the sending host; it is the aggregator's key.
	Host string `json:"host"`
	// Seq increases by one per batch built on the sender. The aggregator
	// keeps only the highest sequence seen, so late retries of older
	// batches never roll state backwards.
	Seq uint64 `json:"seq"`
	// SentUnixNano is the sender's wall clock when the batch was built.
	SentUnixNano int64 `json:"sent_unix_nano"`
	// Delta marks an interval-delta batch: Snapshots are Snapshot.Sub
	// deltas against the sender's state at BaseSeq, and disks whose state
	// did not change since BaseSeq may be omitted entirely. The receiver
	// must hold exactly BaseSeq for the host to apply it; anything else is
	// a resync condition. On the wire this is the flagDelta frame bit.
	Delta bool `json:"-"`
	// BaseSeq is the acknowledged sequence a delta batch builds on.
	// Meaningless (and zero) on full batches.
	BaseSeq uint64 `json:"-"`
	// Snapshots is the registry's state — cumulative since enable/reset on
	// full batches, interval deltas on delta batches.
	Snapshots []*core.Snapshot `json:"-"`
	// TraceID identifies one push end-to-end: the agent stamps it at
	// capture time and every pipeline stage — encode, push, decode, shard
	// apply, log append, replay — reports against it, so a single push can
	// be followed across processes. Empty on frames from pre-trace
	// senders; carried in the frame header, never required.
	TraceID string `json:"-"`
	// CaptureUnixNano is the sender's wall clock when the underlying
	// registry snapshots were captured (before delta rendering, encoding
	// and queueing), as opposed to SentUnixNano which is when the batch
	// was built. Zero on frames from pre-trace senders.
	CaptureUnixNano int64 `json:"-"`
	// Boot identifies the sender's incarnation: a random value drawn once
	// per sender process. When a host's Boot changes, its Seq space
	// restarted from 1, so the receiver replaces stored state even when
	// the new sequence is lower — the rule that lets a restarted mid-tier
	// re-exporter displace its predecessor's state instead of being
	// mistaken for a late retry. Zero on frames from pre-federation
	// senders, which keeps their retry semantics exactly as before.
	Boot uint64 `json:"-"`
	// Level is the sender's height in the federation tree: 0 for a leaf
	// agent, 1 + max(ingested levels) for an aggregator re-exporting its
	// merged state. Liveness metadata for level-aware staleness; it rides
	// the header so every tier of /fleet/hosts can tag what it holds.
	Level int `json:"-"`
	// Leaves is how many leaf hosts the batch's state folds together: 0
	// (meaning 1) for a leaf agent, the sum of fresh downstream leaves for
	// a re-exported rollup.
	Leaves int `json:"-"`
}

// EncodeBatchBytes renders b as one generation-6 frame in memory. It fails on
// a batch the binary payload cannot carry: one with a null snapshot.
func EncodeBatchBytes(b *Batch) ([]byte, error) {
	flags := byte(flagBinary | flagChecked | flagCompact)
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
	frame, err := appendPayload(frame, b.Snapshots)
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
// the buffer chunk by chunk instead of trusting the declaration: a hostile
// length prefix can claim up to maxPayloadLen (256 MiB), and allocating that
// before a payload byte has arrived hands any peer a cheap memory-pressure
// attack; growing with the bytes read caps it at one chunk past what was
// sent. A short read maps to ErrTruncatedFrame.
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
// exhausted before the first byte (a clean end of stream) and an error
// wrapping ErrBadFrame for any malformed frame; it never panics, whatever
// the input. The subset of failures where the stream ended inside the
// frame additionally matches ErrTruncatedFrame — segment-log replay uses
// that to tell a crash-torn tail (truncate and continue) from corruption
// (refuse to start). Declared lengths are never trusted for allocation:
// buffers grow with the bytes actually read, so a hostile 256 MiB length
// prefix on a ten-byte body costs one chunk, not 256 MiB, and a binary
// payload's snapshot count is checked against the bytes that arrived. The
// one failure that is not a bad frame is *UnknownLayoutError: a whole,
// well-formed frame whose bin layout is another binary generation's.
func DecodeBatch(r io.Reader) (*Batch, error) {
	f, err := readFrame(r, nil)
	if err == nil {
		f.Snapshots, err = decodePayload(f.payload, f.count, nil, false)
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
	}{{flagBinary, "pre-binary JSON payload"}, {flagChecked, "generation-4 JSON header"}, {flagCompact, "generation-5 payload"}} {
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
