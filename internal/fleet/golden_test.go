package fleet

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vscsistats/internal/core"
)

// goldenBatches is the fixed input of testdata/frame_golden.bin: one host's
// full batch and the delta that builds on it, with one disk unchanged (and
// so omitted from the delta). The registry is returned at the delta's state.
func goldenBatches() (*Batch, *Batch, *core.Registry) {
	reg := makeRegistry(6, 2, 2, 300)
	base := reg.Snapshots()
	full := &Batch{
		Host: "esx-golden", Seq: 7, SentUnixNano: 1_700_000_000_000_000_000,
		CaptureUnixNano: 1_699_999_999_000_000_000, TraceID: "esx-golden-0badcafe-7",
		Boot: 0x5eed5eed5eed, Level: 1, Leaves: 3, Snapshots: base,
	}
	for i, col := range reg.List()[1:] {
		feed(col, 900+i, 120)
	}
	var deltas []*core.Snapshot
	for i, s := range reg.Snapshots()[1:] {
		deltas = append(deltas, s.Sub(base[i+1]))
	}
	delta := &Batch{
		Host: "esx-golden", Seq: 8, SentUnixNano: 1_700_000_001_000_000_000,
		CaptureUnixNano: 1_700_000_000_500_000_000, TraceID: "esx-golden-0badcafe-8",
		Boot: 0x5eed5eed5eed, Level: 1, Leaves: 3,
		Delta: true, BaseSeq: 7, Snapshots: deltas,
	}
	return full, delta, reg
}

// decodeGolden decodes goldenBatches' two frames from data and checks them
// against what was encoded: every header field and every cell.
func decodeGolden(t *testing.T, data []byte) {
	t.Helper()
	full, delta, _ := goldenBatches()
	r := bytes.NewReader(data)
	for _, b := range []*Batch{full, delta} {
		back, err := DecodeBatch(r)
		if err != nil {
			t.Fatalf("seq %d: %v", b.Seq, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("seq %d: %v", b.Seq, err)
		}
		snaps := back.Snapshots
		back.Snapshots, b.Snapshots = nil, nil
		if !reflect.DeepEqual(back, b) {
			t.Errorf("seq %d: header decoded to %+v, want %+v", b.Seq, *back, *b)
		}
		b.Snapshots = snaps
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes after the two golden frames", r.Len())
	}
	again, againDelta, _ := goldenBatches()
	for i, want := range [][]*core.Snapshot{again.Snapshots, againDelta.Snapshots} {
		got := []*Batch{full, delta}[i].Snapshots
		if len(got) != len(want) {
			t.Fatalf("frame %d decoded %d snapshots, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].VM != want[j].VM || got[j].Disk != want[j].Disk || !got[j].StateEquals(want[j]) {
				t.Errorf("frame %d snapshot %d (%s/%s) decoded to different state", i, j, want[j].VM, want[j].Disk)
			}
		}
	}
}

// TestFrameGolden pins the generation-4 reader: testdata/frame_golden.bin is
// EncodeBatchBytes of goldenBatches' two frames, back to back, written by
// the binary at 0590e06 (JSON header, no trailer). This binary must still
// read them back to the same state.
func TestFrameGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/frame_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 4 || data[5]&flagChecked != 0 {
		t.Fatalf("fixture head % x is not a generation-4 frame", data[:6])
	}
	decodeGolden(t, data)
}

// TestFrameGoldenV5 pins the writer: testdata/frame_golden_v5.bin is the
// same two frames as the first generation-5 writer rendered them (binary
// header, CRC-32C trailer). This binary must write the same bytes and read
// them back to the same state.
func TestFrameGoldenV5(t *testing.T) {
	want, err := os.ReadFile("testdata/frame_golden_v5.bin")
	if err != nil {
		t.Fatal(err)
	}
	full, delta, _ := goldenBatches()
	var got []byte
	for _, b := range []*Batch{full, delta} {
		frame, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, frame...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded frames differ from the golden file (%d bytes, want %d)", len(got), len(want))
	}
	decodeGolden(t, want)
}

// TestFrameGoldenBitFlips flips every bit of both generation-5 golden
// frames, one at a time: no flip may decode into different cells. The
// trailer covers every byte, so every flip is refused, and only a flip in
// a declared length can read as a truncation.
func TestFrameGoldenBitFlips(t *testing.T) {
	data, err := os.ReadFile("testdata/frame_golden_v5.bin")
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		f, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		for bit := range 8 * len(f.raw) {
			flipped := append([]byte(nil), f.raw...)
			flipped[bit/8] ^= 1 << (bit % 8)
			_, err := DecodeBatch(bytes.NewReader(flipped))
			if err == nil {
				t.Fatalf("seq %d: flipping bit %d decoded", f.Seq, bit)
			}
			if at := bit / 8; errors.Is(err, ErrTruncatedFrame) && (at < 8 || at >= 16) {
				t.Errorf("seq %d: flipping bit %d (byte %d) reads as a truncation: %v", f.Seq, bit, at, err)
			}
		}
	}
}

// TestLogReplaysParentWrittenSegment boots an aggregator over a segment the
// binary at 0590e06 wrote (a segment is frames back to back, so the golden
// frames are one): both frames apply — nothing skipped, nothing resynced —
// and the recovered view is the registry's.
func TestLogReplaysParentWrittenSegment(t *testing.T) {
	golden, err := os.ReadFile("testdata/frame_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := logAggConfig(dir)
	shardDir := filepath.Join(dir, shardDirName(int(shardHash("esx-golden")%uint32(cfg.Shards))))
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(shardDir, 1), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	g, st, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if st.Frames != 2 || st.Skipped != 0 || st.TornTails != 0 || st.Hosts != 1 {
		t.Fatalf("replay = %+v, want 2 frames, 0 skipped, 0 torn tails, 1 host", st)
	}
	if s := g.Stats(); s.Resyncs != 0 || s.DeltasApplied != 1 {
		t.Errorf("replay counted %d resyncs and %d deltas applied, want 0 and 1", s.Resyncs, s.DeltasApplied)
	}
	_, _, reg := goldenBatches()
	if !g.ClusterSnapshot(true).StateEquals(reg.HostSnapshot()) {
		t.Error("state recovered from the parent's segment is not the registry's")
	}
}
