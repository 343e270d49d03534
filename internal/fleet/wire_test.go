package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
)

func testBatch(t *testing.T, hostSeed int) *Batch {
	t.Helper()
	reg := makeRegistry(hostSeed, 2, 2, 500)
	return &Batch{
		Host:         "esx-" + string(rune('0'+hostSeed)),
		Seq:          uint64(hostSeed) + 1,
		SentUnixNano: 1234567890,
		Snapshots:    reg.Snapshots(),
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := testBatch(t, 1)
	data, err := EncodeBatchBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if out.Host != in.Host || out.Seq != in.Seq || out.SentUnixNano != in.SentUnixNano {
		t.Errorf("header round-trip: got %q/%d/%d", out.Host, out.Seq, out.SentUnixNano)
	}
	if len(out.Snapshots) != len(in.Snapshots) {
		t.Fatalf("snapshot count %d, want %d", len(out.Snapshots), len(in.Snapshots))
	}
	for i := range in.Snapshots {
		if out.Snapshots[i].VM != in.Snapshots[i].VM || out.Snapshots[i].Disk != in.Snapshots[i].Disk {
			t.Errorf("snapshot %d identity lost: %s/%s", i, out.Snapshots[i].VM, out.Snapshots[i].Disk)
		}
		if !sameSnapshot(out.Snapshots[i], in.Snapshots[i]) {
			t.Errorf("snapshot %d not bin-exact after round trip", i)
		}
	}
	if err := out.Validate(); err != nil {
		t.Errorf("decoded batch fails validation: %v", err)
	}
}

func TestWireStreamsConcatenatedFrames(t *testing.T) {
	var buf bytes.Buffer
	want := []*Batch{testBatch(t, 1), testBatch(t, 2), testBatch(t, 3)}
	for _, b := range want {
		frame, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	for i := 0; ; i++ {
		b, err := DecodeBatch(&buf)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("stream ended after %d frames, want %d", i, len(want))
			}
			return
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if b.Host != want[i].Host {
			t.Errorf("frame %d host %q, want %q", i, b.Host, want[i].Host)
		}
	}
}

func TestWireRejectsCorruptFrames(t *testing.T) {
	valid, err := EncodeBatchBytes(testBatch(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		data := mutate(append([]byte(nil), valid...))
		if len(data) == len(valid) {
			reseal(data) // reach the check the case names, not the checksum
		}
		_, err := DecodeBatch(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: decoded successfully, want error", name)
			return
		}
		if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: error %v does not wrap ErrBadFrame", name, err)
		}
	}
	corrupt("bad magic", func(d []byte) []byte { d[0] = 'X'; return d })
	corrupt("version zero", func(d []byte) []byte { d[4] = 0; return d })
	corrupt("unknown flags", func(d []byte) []byte { d[5] |= 0x80; return d })
	corrupt("oversize header len", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[8:12], maxHeaderLen+1)
		return d
	})
	corrupt("oversize payload len", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[12:16], maxPayloadLen+1)
		return d
	})
	corrupt("truncated head", func(d []byte) []byte { return d[:10] })
	corrupt("truncated header", func(d []byte) []byte { return d[:18] })
	corrupt("truncated payload", func(d []byte) []byte { return d[:len(d)-5] })
	corrupt("payload garbage", func(d []byte) []byte {
		for i := len(d) - 24; i < len(d)-4; i++ {
			d[i] ^= 0xff
		}
		return d
	})
	corrupt("header garbage", func(d []byte) []byte { d[16] = 0x7f; return d }) // the host overruns the header
	// Left unsealed, any changed byte is a checksum error and never a
	// truncation.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := DecodeBatch(bytes.NewReader(flipped)); !errors.Is(err, ErrChecksum) || errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("flipped payload bit: %v, want ErrChecksum and not a truncation", err)
	}
	// Reserved bytes, by contrast, must be ignored (forward compat).
	tolerated := append([]byte(nil), valid...)
	tolerated[6], tolerated[7] = 0xde, 0xad
	if _, err := DecodeBatch(bytes.NewReader(reseal(tolerated))); err != nil {
		t.Errorf("reserved bytes rejected: %v", err)
	}
	// A higher version with known flags must still decode.
	future := append([]byte(nil), valid...)
	future[4] = 9
	if _, err := DecodeBatch(bytes.NewReader(reseal(future))); err != nil {
		t.Errorf("future version rejected: %v", err)
	}
}

// TestWireTruncationIsTyped cuts a valid frame at every byte: each cut
// must decode to an error matching BOTH ErrBadFrame (it is malformed) and
// ErrTruncatedFrame (the stream ended inside the frame) — the typed
// distinction segment-log replay uses to truncate a crash-torn tail
// instead of refusing the whole log. The zero-byte cut is the one clean
// case: io.EOF, a stream that ended between frames.
func TestWireTruncationIsTyped(t *testing.T) {
	frame, err := EncodeBatchBytes(testBatch(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatch(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		_, err := DecodeBatch(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("cut at byte %d decoded successfully", cut)
		}
		if !errors.Is(err, ErrTruncatedFrame) || !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut at byte %d: %v, want ErrTruncatedFrame wrapping ErrBadFrame", cut, err)
		}
	}
	// Corruption, by contrast, must NOT read as truncation — replay would
	// otherwise silently discard a damaged chain's tail.
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, err := DecodeBatch(bytes.NewReader(bad)); !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("bad magic: %v, want plain ErrBadFrame", err)
	}
	garbled := append([]byte(nil), frame...)
	for i := len(garbled) - 20; i < len(garbled); i++ {
		garbled[i] ^= 0xff
	}
	if _, err := DecodeBatch(bytes.NewReader(garbled)); err == nil || errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("garbled payload: %v, want a non-truncation error", err)
	}
}

// TestWireHostileLengthAllocation pins the progressive-allocation fix: a
// frame head declaring the maximum 256 MiB payload backed by a handful of
// real bytes must fail as a truncated frame after allocating no more than
// a couple of read chunks — not the full declared size. (The old code
// made one payload-sized allocation straight from the header, handing any
// peer a memory-pressure attack for 16 bytes of input.)
func TestWireHostileLengthAllocation(t *testing.T) {
	frame, err := EncodeBatchBytes(testBatch(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	hostile := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(hostile[12:16], maxPayloadLen)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = DecodeBatch(bytes.NewReader(hostile))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("hostile payload length: %v, want ErrTruncatedFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("decoding a 16-byte lie allocated %d bytes, want chunked growth well under 16 MiB", grew)
	}

	// The header length is chunk-allocated the same way.
	hostile = append([]byte(nil), frame[:16]...)
	binary.BigEndian.PutUint32(hostile[8:12], maxHeaderLen)
	if _, err := DecodeBatch(bytes.NewReader(hostile)); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("hostile header length: %v, want ErrTruncatedFrame", err)
	}
}

func TestValidateRejectsUnsafeBatches(t *testing.T) {
	good := testBatch(t, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	if err := (&Batch{Snapshots: good.Snapshots}).Validate(); err == nil {
		t.Error("batch without host accepted")
	}
	withNil := &Batch{Host: "h", Snapshots: []*core.Snapshot{nil}}
	if err := withNil.Validate(); err == nil {
		t.Error("null snapshot accepted")
	}
	if _, err := EncodeBatchBytes(withNil); err == nil {
		t.Error("null snapshot encoded")
	}
	for name, b := range map[string]*Batch{
		"delta on its own seq": {Host: "h", Seq: 3, Delta: true, BaseSeq: 3},
		"negative level":       {Host: "h", Seq: 1, Level: -1},
		"negative leaves":      {Host: "h", Seq: 1, Leaves: -1},
	} {
		if err := b.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestPreBinaryFrameRefused: a frame without the binary flag holds the JSON
// payload versions 1-3 wrote, which nothing here reads. It is a bad frame
// and never a truncated one, whole or cut short in its payload, so a push
// carrying one is a 400 counted as rejected, and a segment holding one
// refuses the boot by name instead of being truncated away.
func TestPreBinaryFrameRefused(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("testdata", "frame_v3_json.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if v3[4] != 3 || v3[5]&flagBinary != 0 {
		t.Fatalf("fixture head % x is not a version-3 JSON frame", v3[:6])
	}
	frames := map[string][]byte{"whole": v3, "cut short": v3[:len(v3)/2]}
	for name, frame := range frames {
		_, err := DecodeBatch(bytes.NewReader(frame))
		if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), "pre-binary") {
			t.Errorf("decode %s: %v, want a pre-binary bad frame that is not a truncation", name, err)
		}
	}

	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	srv := httptest.NewServer(g)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := g.Stats(); resp.StatusCode != http.StatusBadRequest || st.Rejected != 1 || st.Hosts != 0 {
		t.Errorf("push: %s, rejected %d, hosts %d; want 400, 1 and 0", resp.Status, st.Rejected, st.Hosts)
	}

	for name, frame := range frames {
		dir, seg := oneFrameLog(t, frame)
		cfg := logAggConfig(dir)
		cfg.Shards = 1
		if _, _, err := OpenAggregator(cfg); err == nil || !strings.Contains(err.Error(), seg) {
			t.Errorf("boot over a %s pre-binary segment: %v, want a refusal naming %s", name, err, seg)
		}
		if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(frame)) {
			t.Errorf("boot over a %s pre-binary segment changed it: %v", name, err)
		}
	}
}
