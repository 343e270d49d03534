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
// against what was encoded: every header field, every cell of the full
// frame, and, the delta being read without its base, every cell of the
// registry's state once the delta is applied onto the full frame's.
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
	again, _, reg := goldenBatches()
	state, err := applyDeltaSnaps(full.Snapshots, delta.Snapshots)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]*core.Snapshot{again.Snapshots, reg.Snapshots()} {
		got := [][]*core.Snapshot{full.Snapshots, state}[i]
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

// readGolden returns a golden file of goldenBatches' two frames as an
// older generation's writer rendered them, checking its head's version and
// that it lacks the flag its successor added.
func readGolden(t *testing.T, name string, version, lacks byte) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != version || data[5]&lacks != 0 {
		t.Fatalf("%s head % x is not a generation-%d frame", name, data[:6], version)
	}
	return data
}

// refusedByName checks that an older generation's frames are refused by
// name, whole or cut short in their body. Each is a bad frame and never a
// truncated one, so a push carrying one is a 400 counted as rejected (see
// refusedInLog for boot and History).
func refusedByName(t *testing.T, data []byte, gen string) {
	t.Helper()
	for name, frame := range map[string][]byte{"whole": data, "cut short": data[:len(data)/2]} {
		_, err := DecodeBatch(bytes.NewReader(frame))
		if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), gen) {
			t.Errorf("decode %s: %v, want a %s bad frame that is not a truncation", name, err, gen)
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
	if st := g.Stats(); resp.StatusCode != http.StatusBadRequest || st.Rejected != 1 || st.Hosts != 0 || !strings.Contains(string(body), gen) {
		t.Errorf("push: %s %q, rejected %d, hosts %d; want a 400 naming %s, 1 and 0", resp.Status, body, st.Rejected, st.Hosts, gen)
	}
}

// TestFrameGolden: testdata/frame_golden.bin is the two frames as the
// binary at 0590e06 wrote them (generation 4: JSON header, no trailer),
// refused by name.
func TestFrameGolden(t *testing.T) {
	refusedByName(t, readGolden(t, "testdata/frame_golden.bin", 4, flagChecked), "generation-4")
}

// TestFrameGoldenV5: testdata/frame_golden_v5.bin is the two frames as the
// generation-5 writer rendered them (binary header, CRC-32C trailer, every
// snapshot whole behind plain names), written up to b2f5a5c and read up to
// 819e569, refused by name.
func TestFrameGoldenV5(t *testing.T) {
	refusedByName(t, readGolden(t, "testdata/frame_golden_v5.bin", 5, flagCompact), "generation-5")
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

// TestFrameGoldenV6: testdata/frame_golden_v6.bin is the two frames as the
// generation-6 writer rendered them (flagCompact: front-coded names, derived
// snapshots without what they derive, every extremum written), written and
// read up to a4da188, refused by name on push, at boot and in History.
func TestFrameGoldenV6(t *testing.T) {
	v6 := readGolden(t, "testdata/frame_golden_v6.bin", 6, flagKept)
	refusedByName(t, v6, "generation-6")
	refusedInLog(t, v6, "generation-6")
}

// TestFrameGoldenV7 pins the writer: testdata/frame_golden_v7.bin is the
// same two frames in generation 7 (flagKept: the delta leaves out each
// extremum equal to its base's). This binary must write the same bytes and
// read them back to the same state.
func TestFrameGoldenV7(t *testing.T) {
	want, err := os.ReadFile("testdata/frame_golden_v7.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeGolden(t, encodeBatch(t)); !bytes.Equal(got, want) {
		t.Fatalf("encoded frames differ from the golden file (%d bytes, want %d)", len(got), len(want))
	}
	decodeGolden(t, want)
}

// TestFrameGoldenBitFlips flips every bit of the generation-7 golden
// frames, one at a time: no flip may decode into
// different cells. The trailer covers every byte, so every flip is refused,
// and only a flip in a declared length can read as a truncation.
func TestFrameGoldenBitFlips(t *testing.T) {
	for _, name := range []string{"testdata/frame_golden_v7.bin"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(data)
		for r.Len() > 0 {
			f, err := readFrame(r, nil)
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

// refusedInLog checks that a segment holding an older generation's frames
// refuses the boot by name and is left untouched, and that the same frames
// landing in a live segment after boot are a drop in History, the frames
// before them still answering.
func refusedInLog(t *testing.T, old []byte, gen string) {
	t.Helper()
	dir, seg := oneFrameLog(t, old)
	cfg := logAggConfig(dir)
	cfg.Shards = 1
	if _, _, err := OpenAggregator(cfg); err == nil || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), gen) {
		t.Errorf("boot over a %s segment: %v, want a refusal naming %s and %s", gen, err, seg, gen)
	}
	if kept, err := os.ReadFile(seg); err != nil || !bytes.Equal(kept, old) {
		t.Errorf("boot over a %s segment changed it: %v", gen, err)
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
	if _, err := f.Write(old); err != nil {
		t.Fatal(err)
	}
	f.Close()
	res, err := g.History(time.Unix(0, 0), t2)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.Aggregate("cluster", "*", states[2]...); res.Dropped != 1 || res.Frames != 3 || !sameSnapshot(res.Cluster, want) {
		t.Errorf("History over a segment ending in %s frames: dropped %d of %d frames, cluster state right %v; want 1, 3 and true",
			gen, res.Dropped, res.Frames, sameSnapshot(res.Cluster, want))
	}
}

// TestLogReplaysParentWrittenSegment: a segment the binary at 0590e06
// wrote (a segment is frames back to back, so the generation-4 golden
// frames are one) refuses the boot.
func TestLogReplaysParentWrittenSegment(t *testing.T) {
	refusedInLog(t, readGolden(t, "testdata/frame_golden.bin", 4, flagChecked), "generation-4")
}

// TestLogBootsMixedGenerations: a sender upgraded mid-chain leaves a segment
// holding the full frame and delta the generation-5 writer sent (the golden
// file) and the compact deltas it sent after. A binary past 819e569 refuses
// it by name at its first frame, as DESIGN §8 says, and never replays the
// compact deltas onto a chain it did not read.
func TestLogBootsMixedGenerations(t *testing.T) {
	_, delta, reg := goldenBatches()
	seg := readGolden(t, "testdata/frame_golden_v5.bin", 5, flagCompact)
	prev := reg.Snapshots()
	for seq := uint64(9); seq <= 11; seq++ {
		for i, col := range reg.List() {
			feed(col, int(seq)*10+i, 40)
		}
		cur := reg.Snapshots()
		b := *delta
		b.Seq, b.BaseSeq, b.Snapshots = seq, seq-1, subSnaps(cur, prev)
		seg, prev = append(seg, encodeBatch(t)(&b)...), cur
	}
	refusedInLog(t, seg, "generation-5")
}
