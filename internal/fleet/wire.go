package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"vscsistats/internal/core"
)

// The frame layout, all integers big-endian:
//
//	offset size field
//	0      4    magic "VSFB"
//	4      1    version (>= 1)
//	5      1    flags (see the flag constants below)
//	6      2    reserved — writers zero, readers ignore
//	8      4    header length
//	12     4    payload length
//	16     ...  header JSON (batchHeader)
//	...    ...  payload: header.Count snapshots, binary (payload.go)
//
// The payload is binary (flagBinary), the only encoding this package
// writes or reads: a frame without the flag holds the pre-binary JSON
// payload of versions 1-3 and is refused as a bad frame. Data in that
// encoding is upgraded by the last commit that read it (DESIGN §8).
//
// Forward compatibility: the header is JSON, so future versions add fields
// without breaking old readers (unknown fields are ignored both ways), and
// readers accept any version >= 1 as long as every flag is known and
// flagBinary is set — a frame's meaning is carried entirely by magic +
// flags + header, never by the version number alone. Frames are
// length-prefixed, so any number of them can be concatenated on one stream
// and decoded one DecodeBatch call at a time.

// Wire format constants.
const (
	// Version is the frame version this package writes. Version 2 added
	// the trace_id and capture_unix_nano header fields; version 3 added
	// the boot, level and leaves federation fields. All of them ride in
	// the JSON header (ignored by readers that predate them) and change no
	// payload semantics, so version-1 decoders accept version-3 frames
	// unchanged. Version 4 changed the payload encoding, which is what the
	// flagBinary bit says; the version number itself still decides nothing.
	Version = 4

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

	// knownFlags is the set of flag bits this decoder understands; frames
	// carrying others are rejected rather than misinterpreted.
	knownFlags = flagDelta | flagBinary

	// maxHeaderLen and maxPayloadLen bound a frame's declared sizes so a
	// corrupt or hostile length prefix cannot drive a huge allocation.
	maxHeaderLen  = 1 << 20
	maxPayloadLen = 1 << 28

	// maxDecodedLen bounds what the snapshots a payload's count would
	// allocate may take in memory.
	maxDecodedLen = 1 << 30
)

var wireMagic = [4]byte{'V', 'S', 'F', 'B'}

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

// batchHeader is the frame header; Count duplicates len(Snapshots) so a
// reader can size-check before decoding the payload.
type batchHeader struct {
	Host         string `json:"host"`
	Seq          uint64 `json:"seq"`
	SentUnixNano int64  `json:"sent_unix_nano"`
	Count        int    `json:"count"`
	// BaseSeq accompanies the flagDelta frame bit (which alone marks a
	// frame as a delta); omitted from full-batch headers.
	BaseSeq uint64 `json:"base_seq,omitempty"`
	// TraceID and CaptureUnixNano (version 2) ride the JSON header's
	// forward-compatibility rule: old readers ignore them, old writers
	// omit them, and either way the frame stays decodable.
	TraceID         string `json:"trace_id,omitempty"`
	CaptureUnixNano int64  `json:"capture_unix_nano,omitempty"`
	// Boot, Level and Leaves (version 3) carry federation liveness
	// metadata under the same rule.
	Boot   uint64 `json:"boot,omitempty"`
	Level  int    `json:"level,omitempty"`
	Leaves int    `json:"leaves,omitempty"`
}

// EncodeBatchBytes renders b as one frame in memory. It fails on a batch
// the binary payload cannot carry: one with a null snapshot.
func EncodeBatchBytes(b *Batch) ([]byte, error) {
	hdr := batchHeader{
		Host: b.Host, Seq: b.Seq, SentUnixNano: b.SentUnixNano, Count: len(b.Snapshots),
		TraceID: b.TraceID, CaptureUnixNano: b.CaptureUnixNano,
		Boot: b.Boot, Level: b.Level, Leaves: b.Leaves,
	}
	flags := byte(flagBinary)
	if b.Delta {
		hdr.BaseSeq = b.BaseSeq
		flags |= flagDelta
	}
	header, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	// A sim-shaped snapshot encodes to 200-300 bytes; the guess only has
	// to keep append from growing the frame more than once.
	frame := make([]byte, 16, 16+len(header)+8+320*len(b.Snapshots))
	frame = append(frame, header...)
	frame, err = appendPayload(frame, b.Snapshots)
	if err != nil {
		return nil, err
	}
	payloadLen := len(frame) - 16 - len(header)
	if payloadLen > maxPayloadLen {
		return nil, fmt.Errorf("fleet: payload %d bytes exceeds frame limit %d", payloadLen, maxPayloadLen)
	}
	copy(frame[0:4], wireMagic[:])
	frame[4], frame[5] = Version, flags
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(header)))
	binary.BigEndian.PutUint32(frame[12:16], uint32(payloadLen))
	return frame, nil
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
	f, err := readFrame(r, readAll)
	if err == nil {
		f.Snapshots, err = decodePayload(f.payload, f.count, nil, false)
	}
	if err != nil {
		return nil, err
	}
	return f.Batch, nil
}

// readAll is readFrame's window end for a reader that needs every payload.
const readAll = math.MaxInt64

// frame is one whole frame as it was read: the batch its header describes,
// and its bytes. Its snapshots stay bytes until used (see chainPos.apply).
type frame struct {
	*Batch
	count   int    // the header's snapshot count
	raw     []byte // head, header and payload
	payload []byte // the snapshots: raw's payload after its layout id
}

// readFrame reads one frame's head, header and payload into one buffer and
// checks everything but the snapshots: DecodeBatch's rules, up to the
// payload's layout id. An *UnknownLayoutError comes with the whole frame. A
// frame sent after to comes with its header only: History's window ends
// there, so the payload bytes are skipped unread. readAll reads every one.
func readFrame(r io.Reader, to int64) (*frame, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF { // no byte read: a clean end of stream
			return nil, io.EOF
		}
		if eofErr(err) {
			return nil, truncatedFrame("short frame head: %v", err)
		}
		return nil, badFrame("short frame head: %v", err)
	}
	if !bytes.Equal(head[0:4], wireMagic[:]) {
		return nil, badFrame("bad magic %q", head[0:4])
	}
	version, flags := head[4], head[5]
	if version < 1 {
		return nil, badFrame("unsupported version %d", version)
	}
	if flags&flagBinary == 0 {
		return nil, badFrame("pre-binary JSON payload (frame version %d): upgrade it as DESIGN.md §8 describes", version)
	}
	if flags&^byte(knownFlags) != 0 {
		return nil, badFrame("unknown flags %#x", flags)
	}
	headerLen := binary.BigEndian.Uint32(head[8:12])
	payloadLen := binary.BigEndian.Uint32(head[12:16])
	if headerLen > maxHeaderLen {
		return nil, badFrame("header length %d exceeds limit %d", headerLen, maxHeaderLen)
	}
	if payloadLen > maxPayloadLen {
		return nil, badFrame("payload length %d exceeds limit %d", payloadLen, maxPayloadLen)
	}
	size := 16 + int(headerLen) + int(payloadLen)
	if to != readAll {
		size -= int(payloadLen) // a payload that may be skipped is read into a grown buffer
	}
	raw, err := readSized(r, append(make([]byte, 0, min(size, 1<<20)), head[:]...), headerLen, "header")
	if err != nil {
		return nil, err
	}
	var hdr batchHeader
	if err := json.Unmarshal(raw[16:], &hdr); err != nil {
		return nil, badFrame("header JSON: %v", err)
	}
	out := &Batch{
		Host: hdr.Host, Seq: hdr.Seq, SentUnixNano: hdr.SentUnixNano,
		Delta:   flags&flagDelta != 0,
		TraceID: hdr.TraceID, CaptureUnixNano: hdr.CaptureUnixNano,
		Boot: hdr.Boot, Level: hdr.Level, Leaves: hdr.Leaves,
	}
	if out.Delta {
		// base_seq means nothing without the flag; dropping it on full
		// frames keeps decode(encode(b)) == b in both directions.
		out.BaseSeq = hdr.BaseSeq
	}
	if hdr.SentUnixNano > to { // no payload byte is read or kept
		if _, err := io.CopyN(io.Discard, r, int64(payloadLen)); err != nil {
			return nil, truncatedFrame("short payload: %v", err)
		}
		return &frame{Batch: out, count: hdr.Count, raw: raw}, nil
	}
	if raw, err = readSized(r, raw, payloadLen, "payload"); err != nil {
		return nil, err
	}
	payload := raw[16+headerLen:]
	if len(payload) < 8 {
		return nil, badFrame("binary payload of %d bytes has no layout id", len(payload))
	}
	f := &frame{Batch: out, count: hdr.Count, raw: raw, payload: payload[8:]}
	if id := binary.BigEndian.Uint64(payload); id != layout.id {
		return f, &UnknownLayoutError{Header: out, LayoutID: id}
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
