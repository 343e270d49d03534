package fleet

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"
)

// legacyVersion is the last frame version whose payload was gzip-framed
// JSON, and legacyKnownFlags the flag bits its decoder understood.
const (
	legacyVersion    = 3
	legacyKnownFlags = flagGzip | flagDelta
)

// encodeLegacyJSON is the payload writer EncodeBatch had up to version 3,
// byte for byte: JSON header, JSON array of snapshots through a fresh gzip
// writer, flags gzip (| delta). It lives on here only, as the source of
// old-sender frames and pre-binary segment logs for the tests that keep
// the legacy reader honest.
func encodeLegacyJSON(t testing.TB, b *Batch) []byte {
	t.Helper()
	snaps, err := json.Marshal(b.Snapshots)
	if err != nil {
		t.Fatal(err)
	}
	return legacyFrame(t, b, append(snaps, '\n'))
}

// legacyFrame frames b's header over the given JSON array of snapshots,
// which need not be one this binary would write.
func legacyFrame(t testing.TB, b *Batch, snaps []byte) []byte {
	t.Helper()
	hdr := batchHeader{
		Host: b.Host, Seq: b.Seq, SentUnixNano: b.SentUnixNano, Count: len(b.Snapshots),
		TraceID: b.TraceID, CaptureUnixNano: b.CaptureUnixNano,
		Boot: b.Boot, Level: b.Level, Leaves: b.Leaves,
	}
	if b.Delta {
		hdr.BaseSeq = b.BaseSeq
	}
	header, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	zw := gzip.NewWriter(&payload)
	zw.Write(snaps)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var head [16]byte
	copy(head[0:4], wireMagic[:])
	head[4] = legacyVersion
	head[5] = flagGzip
	if b.Delta {
		head[5] |= flagDelta
	}
	binary.BigEndian.PutUint32(head[8:12], uint32(len(header)))
	binary.BigEndian.PutUint32(head[12:16], uint32(payload.Len()))
	return append(append(head[:], header...), payload.Bytes()...)
}

// foreignLegacyFrames renders b as legacy frames whose snapshots this binary
// cannot hold as cells, each by one edit to the JSON it would have written.
func foreignLegacyFrames(t testing.TB, b *Batch) map[string][]byte {
	t.Helper()
	snaps, err := json.Marshal(b.Snapshots)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, edit := range map[string][2]string{
		"foreign edge":      {`"edges":[512,1024,`, `"edges":[513,1024,`},
		"one edge fewer":    {`"edges":[512,1024,`, `"edges":[1024,`},
		"missing histogram": {`"SeekWindowed":{`, `"SeekWindowed":null,"x":{`},
		"short counts":      {`"counts":[`, `"counts":[1],"x":[`},
	} {
		if !bytes.Contains(snaps, []byte(edit[0])) {
			t.Fatalf("%s: the snapshot JSON has no %s", name, edit[0])
		}
		out[name] = legacyFrame(t, b, bytes.Replace(snaps, []byte(edit[0]), []byte(edit[1]), 1))
	}
	return out
}

// TestLegacyFrameForeignLayout: the legacy JSON payload names its edges, so
// it can carry a histogram this binary has no cells for. That is the typed
// unknown-layout error a foreign binary frame gets, header attached — never
// a decoded snapshot with the histogram zeroed or re-binned — and a pushed
// delta draws the same layout-mismatch resync.
func TestLegacyFrameForeignLayout(t *testing.T) {
	reg := makeRegistry(2, 1, 2, 120)
	base := reg.Snapshots()
	feed(reg.List()[0], 9, 40)
	delta := deltaBatch(t, "old-agent", 5, 4, base, reg.Snapshots())
	g := NewAggregator(AggregatorConfig{})
	for name, frame := range foreignLegacyFrames(t, delta) {
		_, err := DecodeBatch(bytes.NewReader(frame))
		var unknown *UnknownLayoutError
		if !errors.As(err, &unknown) || errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: %v, want an UnknownLayoutError that is not ErrBadFrame", name, err)
			continue
		}
		if h := unknown.Header; h == nil || h.Host != "old-agent" || h.Seq != 5 || !h.Delta || h.Snapshots != nil {
			t.Errorf("%s: typed error carries %+v", name, unknown.Header)
		}
		_, err = g.receive(context.Background(), bytes.NewReader(frame), false)
		if !errorsIsResync(err) {
			t.Errorf("%s pushed as a delta: %v, want a resync", name, err)
		}
	}
	if st := g.Stats(); st.ResyncLayoutMismatch != 4 || st.Rejected != 0 {
		t.Errorf("layout-mismatch resyncs %d, rejected %d, want 4 and 0", st.ResyncLayoutMismatch, st.Rejected)
	}
}

// TestLegacyFrameDecodes pins the reader half of the rollout: a frame
// from a version-3 sender, full or delta, decodes bin-exact, validates,
// and is marked as having arrived in the legacy encoding.
func TestLegacyFrameDecodes(t *testing.T) {
	reg := makeRegistry(2, 2, 2, 120)
	base := reg.Snapshots()
	feed(reg.List()[1], 9, 40)
	full := &Batch{
		Host: "old-agent", Seq: 4, SentUnixNano: 99, Snapshots: reg.Snapshots(),
		TraceID: "old-agent-1-4", CaptureUnixNano: 98, Boot: 7, Level: 1, Leaves: 3,
	}
	delta := deltaBatch(t, "old-agent", 5, 4, base, reg.Snapshots())
	for _, in := range []*Batch{full, delta} {
		out, err := DecodeBatch(bytes.NewReader(encodeLegacyJSON(t, in)))
		if err != nil {
			t.Fatalf("legacy frame (delta=%v): %v", in.Delta, err)
		}
		if !out.jsonPayload {
			t.Error("legacy frame not marked as JSON-encoded")
		}
		if out.Host != in.Host || out.Seq != in.Seq || out.Delta != in.Delta || out.BaseSeq != in.BaseSeq ||
			out.TraceID != in.TraceID || out.Boot != in.Boot || out.Level != in.Level || out.Leaves != in.Leaves {
			t.Errorf("legacy header drifted: %+v", out)
		}
		if len(out.Snapshots) != len(in.Snapshots) {
			t.Fatalf("%d snapshots, want %d", len(out.Snapshots), len(in.Snapshots))
		}
		for i := range in.Snapshots {
			if !sameSnapshot(out.Snapshots[i], in.Snapshots[i]) {
				t.Errorf("snapshot %d not bin-exact through the legacy reader", i)
			}
		}
		if err := out.Validate(); err != nil {
			t.Errorf("legacy frame fails validation: %v", err)
		}
	}
}
