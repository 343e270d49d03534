package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

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

// readGeneration4 returns testdata/frame_golden.bin: goldenBatches' two
// frames as the binary at 0590e06 wrote them (JSON header, no trailer).
func readGeneration4(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/frame_golden.bin")
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != 4 || data[5]&flagChecked != 0 {
		t.Fatalf("fixture head % x is not a generation-4 frame", data[:6])
	}
	return data
}

// TestFrameGolden: a generation-4 frame is refused by name, whole or cut
// short in its body. It is a bad frame and never a truncated one, so a push
// carrying one is a 400 counted as rejected (see
// TestLogReplaysParentWrittenSegment for boot and History).
func TestFrameGolden(t *testing.T) {
	data := readGeneration4(t)
	for name, frame := range map[string][]byte{"whole": data, "cut short": data[:len(data)/2]} {
		_, err := DecodeBatch(bytes.NewReader(frame))
		if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), "generation-4") {
			t.Errorf("decode %s: %v, want a generation-4 bad frame that is not a truncation", name, err)
		}
	}

	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	srv := httptest.NewServer(g)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if st := g.Stats(); resp.StatusCode != http.StatusBadRequest || st.Rejected != 1 || st.Hosts != 0 || !strings.Contains(string(body), "generation-4") {
		t.Errorf("push: %s %q, rejected %d, hosts %d; want a 400 naming generation 4, 1 and 0", resp.Status, body, st.Rejected, st.Hosts)
	}
}

// encodeGolden renders goldenBatches' two frames with encode.
func encodeGolden(t *testing.T, encode func(*Batch) []byte) []byte {
	t.Helper()
	full, delta, _ := goldenBatches()
	return append(encode(full), encode(delta)...)
}

// encodeBatch is EncodeBatchBytes for a test.
func encodeBatch(t testing.TB) func(*Batch) []byte {
	return func(b *Batch) []byte {
		t.Helper()
		frame, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
}

// TestFrameGoldenV5: testdata/frame_golden_v5.bin is the same two frames as
// the generation-5 writer rendered them (binary header, CRC-32C trailer,
// every snapshot whole), the form written up to b2f5a5c. This binary no
// longer writes it but must read it back to the same state; encodeV5, the
// tests' stand-in for that writer, renders the same bytes.
func TestFrameGoldenV5(t *testing.T) {
	want, err := os.ReadFile("testdata/frame_golden_v5.bin")
	if err != nil {
		t.Fatal(err)
	}
	if want[4] != 5 || want[5]&flagCompact != 0 {
		t.Fatalf("fixture head % x is not a generation-5 frame", want[:6])
	}
	decodeGolden(t, want)
	if got := encodeGolden(t, func(b *Batch) []byte { return encodeV5(t, b) }); !bytes.Equal(got, want) {
		t.Errorf("encodeV5 renders %d bytes that differ from the generation-5 golden file's %d", len(got), len(want))
	}
}

// TestFrameGoldenV6 pins the writer: testdata/frame_golden_v6.bin is the
// same two frames in generation 6 (flagCompact: front-coded names, derived
// snapshots without what they derive). This binary must write the same
// bytes and read them back to the same state.
func TestFrameGoldenV6(t *testing.T) {
	want, err := os.ReadFile("testdata/frame_golden_v6.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeGolden(t, encodeBatch(t)); !bytes.Equal(got, want) {
		t.Fatalf("encoded frames differ from the golden file (%d bytes, want %d)", len(got), len(want))
	}
	decodeGolden(t, want)
}

// TestFrameGoldenBitFlips flips every bit of the generation-5 and
// generation-6 golden frames, one at a time: no flip may decode into
// different cells. The trailer covers every byte, so every flip is refused,
// and only a flip in a declared length can read as a truncation.
func TestFrameGoldenBitFlips(t *testing.T) {
	for _, name := range []string{"testdata/frame_golden_v5.bin", "testdata/frame_golden_v6.bin"} {
		data, err := os.ReadFile(name)
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
					t.Fatalf("%s seq %d: flipping bit %d decoded", name, f.Seq, bit)
				}
				if at := bit / 8; errors.Is(err, ErrTruncatedFrame) && (at < 8 || at >= 16) {
					t.Errorf("%s seq %d: flipping bit %d (byte %d) reads as a truncation: %v", name, f.Seq, bit, at, err)
				}
			}
		}
	}
}

// TestLogReplaysParentWrittenSegment: a segment the binary at 0590e06
// wrote (a segment is frames back to back, so the golden frames are one)
// refuses the boot by name and is left untouched. A generation-4 frame that
// lands in a live segment after boot is a drop in History, and the frames
// before it still answer.
func TestLogReplaysParentWrittenSegment(t *testing.T) {
	golden := readGeneration4(t)
	dir, seg := oneFrameLog(t, golden)
	cfg := logAggConfig(dir)
	cfg.Shards = 1
	if _, _, err := OpenAggregator(cfg); err == nil || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), "generation-4") {
		t.Errorf("boot over a generation-4 segment: %v, want a refusal naming %s and generation 4", err, seg)
	}
	if kept, err := os.ReadFile(seg); err != nil || !bytes.Equal(kept, golden) {
		t.Errorf("boot over a generation-4 segment changed it: %v", err)
	}

	cfg = logAggConfig(t.TempDir())
	cfg.Shards = 1
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	batches, states := timedChain(0, t0, t1, t2)
	ingestAll(t, g, batches)
	f, err := os.OpenFile(g.log.shards[0].active.path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(golden); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res, err := g.History(time.Unix(0, 0), t2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Frames != 3 || !sameSnapshot(res.Cluster, core.Aggregate("cluster", "*", states[2]...)) {
		t.Errorf("History over a segment ending in generation-4 frames: dropped %d of %d frames, cluster state right %v; want 1, 3 and true",
			res.Dropped, res.Frames, sameSnapshot(res.Cluster, core.Aggregate("cluster", "*", states[2]...)))
	}
}

// TestLogBootsMixedGenerations: a sender upgraded mid-chain leaves a segment
// holding the full frame and delta the generation-5 writer sent (the golden
// file, as the parent commit wrote it) and the compact deltas it sent after.
// Pushed live, every frame is logged as it arrived; the boot over that
// segment is bin-exact, and History's windows equal live ingest's states.
func TestLogBootsMixedGenerations(t *testing.T) {
	full, delta, reg := goldenBatches()
	golden, err := os.ReadFile("testdata/frame_golden_v5.bin")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for r := bytes.NewReader(golden); r.Len() > 0; {
		f, err := readFrame(r)
		if err != nil || f.compact {
			t.Fatalf("golden frame: %v, compact %v", err, err == nil && f.compact)
		}
		frames = append(frames, f.raw)
	}
	sent := []int64{full.SentUnixNano, delta.SentUnixNano}
	states := [][]*core.Snapshot{full.Snapshots, reg.Snapshots()}
	for seq := uint64(9); seq <= 11; seq++ {
		for i, col := range reg.List() {
			feed(col, int(seq)*10+i, 40)
		}
		cur, prev := reg.Snapshots(), states[len(states)-1]
		b := *delta
		b.Seq, b.BaseSeq, b.Snapshots = seq, seq-1, subSnaps(cur, prev)
		b.SentUnixNano += int64(seq-8) * int64(time.Second)
		frames, sent, states = append(frames, encodeBatch(t)(&b)), append(sent, b.SentUnixNano), append(states, cur)
	}

	dir := t.TempDir()
	cfg := logAggConfig(dir)
	cfg.Shards = 1
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	for i, frame := range frames {
		resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push %d: %s", i, resp.Status)
		}
		if live := g.ClusterSnapshot(true); !live.StateEquals(core.Aggregate("cluster", "*", states[i]...)) {
			t.Fatalf("live state after push %d differs from the sender's", i)
		}
	}
	srv.Close()
	live := g.ClusterSnapshot(true)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if seg, err := os.ReadFile(segFiles(t, dir)[0]); err != nil || !bytes.Equal(seg, bytes.Join(frames, nil)) {
		t.Fatalf("the segment does not hold the frames as they arrived: %v", err)
	}

	g, rst, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatalf("boot over a mixed-generation segment: %v", err)
	}
	defer g.Close()
	if rst.Frames != int64(len(frames)) || rst.Skipped != 0 || rst.TornTails != 0 || !g.ClusterSnapshot(true).StateEquals(live) {
		t.Fatalf("boot: %+v, state exact %v; want %d frames, none skipped, and the live state", rst, g.ClusterSnapshot(true).StateEquals(live), len(frames))
	}
	epoch, far := time.Unix(0, 0), time.Unix(0, sent[len(sent)-1]+1)
	for k := range frames {
		res, err := g.History(epoch, time.Unix(0, sent[k]))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cluster.StateEquals(core.Aggregate("cluster", "*", states[k]...)) {
			t.Errorf("History up to frame %d differs from the live state after it", k)
		}
		res, err = g.History(time.Unix(0, sent[k]), far)
		if err != nil {
			t.Fatal(err)
		}
		var windows []*core.Snapshot
		for i, s := range states[len(states)-1] {
			windows = append(windows, core.IntervalSince(states[k][i], s))
		}
		if want, _ := mergeSnaps(windows); k < len(frames)-1 && !res.Cluster.StateEquals(want) {
			t.Errorf("History from frame %d on differs from the live states' interval", k)
		}
	}
}
