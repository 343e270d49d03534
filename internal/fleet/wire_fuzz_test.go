package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// FuzzDecodeBatch asserts the codec's one hard promise: whatever bytes
// arrive — truncated, bit-flipped, hostile lengths and counts, varint
// garbage, a retired encoding — DecodeBatch returns an error or a batch,
// and never panics. Validate must never panic on a decoded batch either,
// and every batch that decodes must survive a re-encode/re-decode round
// trip with every cell intact.
func FuzzDecodeBatch(f *testing.F) {
	// Seed with real frames at several shapes, plus classic corruptions.
	// EncodeBatchBytes writes the binary payload, so these are binary
	// frames whole, truncated and bit-flipped.
	for _, seedCfg := range []struct{ vms, disks, n int }{{1, 1, 0}, {1, 1, 50}, {2, 3, 200}} {
		reg := makeRegistry(1, seedCfg.vms, seedCfg.disks, seedCfg.n)
		data, err := EncodeBatchBytes(&Batch{Host: "seed", Seq: 1, Snapshots: reg.Snapshots()})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x55
		f.Add(flipped)
	}
	// Delta frames: the flagDelta bit plus base_seq header, both well-formed
	// (an interval delta of a real registry) and corrupted.
	deltaReg := makeRegistry(2, 1, 2, 100)
	deltaBase := deltaReg.Snapshots()
	feed(deltaReg.List()[0], 42, 60)
	deltaSnaps, ok := new(chain).subAgainst(deltaReg.Snapshots(), deltaBase)
	if !ok {
		f.Fatal("delta seed: disk sets diverged")
	}
	deltaData, err := EncodeBatchBytes(&Batch{
		Host: "seed-delta", Seq: 9, BaseSeq: 8, Delta: true, Snapshots: deltaSnaps,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deltaData)
	// The same delta's kept extrema under a full frame's flags: refused.
	asFull := append([]byte(nil), deltaData...)
	asFull[5] &^= flagDelta
	f.Add(reseal(asFull))

	// The version-2 header extension: trace id and capture timestamp
	// riding the JSON header. Seeded whole and truncated so the fuzzer
	// explores the extended header's field boundaries too.
	traced, err := EncodeBatchBytes(&Batch{
		Host: "seed-traced", Seq: 4, Snapshots: deltaBase,
		TraceID: "seed-traced-00c0ffee-4", CaptureUnixNano: 1_700_000_000_000_000_000,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	f.Add(traced[:len(traced)*2/3])
	f.Add(deltaData[:len(deltaData)/3])
	badFlags := append([]byte(nil), deltaData...)
	badFlags[5] |= 1 << 7 // an unknown flag bit alongside flagDelta
	f.Add(reseal(badFlags))

	// Re-exported frames (version 3): a mid-tier's rollup delta carrying
	// the federation header fields — boot incarnation, level, leaf count —
	// and a trace ID that will traverse two decode hops on its way from a
	// region to the global tier. Seeded whole and truncated so the fuzzer
	// explores the federation fields' boundaries.
	reexported, err := EncodeBatchBytes(&Batch{
		Host: "region-west", Seq: 7, BaseSeq: 6, Delta: true, Snapshots: deltaSnaps,
		TraceID: "region-west-00c0ffee-7", CaptureUnixNano: 1_700_000_000_000_000_000,
		Boot: 0xdeadbeefcafef00d, Level: 1, Leaves: 640,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(reexported)
	f.Add(reexported[:len(reexported)*3/4])
	// A liveness-only heartbeat: delta flag, zero snapshots, federation
	// header intact — the smallest frame the protocol sends.
	heartbeat, err := EncodeBatchBytes(&Batch{
		Host: "region-west", Seq: 7, BaseSeq: 6, Delta: true,
		Boot: 0xdeadbeefcafef00d, Level: 1, Leaves: 640,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(heartbeat)

	empty, err := EncodeBatchBytes(&Batch{Host: "empty"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte("VSFB"))
	huge := append([]byte(nil), empty...)
	binary.BigEndian.PutUint32(huge[12:16], 0xffffffff)
	f.Add(huge)

	// Crash-torn tails: the same frame cut at every region boundary the
	// decoder crosses (inside the head, the header, the payload), strided
	// so the corpus stays small. Replay leans on every one of these cuts
	// mapping to ErrTruncatedFrame rather than a panic or a false decode.
	tornReg := makeRegistry(3, 1, 1, 80)
	torn, err := EncodeBatchBytes(&Batch{Host: "seed-torn", Seq: 3, Snapshots: tornReg.Snapshots()})
	if err != nil {
		f.Fatal(err)
	}
	stride := max(1, len(torn)/32)
	for cut := 1; cut < len(torn); cut += stride {
		f.Add(torn[:cut])
	}
	// A maximal declared payload over a near-empty body: the hostile
	// length prefix the chunked reader must absorb without allocating it.
	lying := append([]byte(nil), torn[:24]...)
	binary.BigEndian.PutUint32(lying[12:16], maxPayloadLen)
	f.Add(lying)

	// Inside the binary payload: a bit flipped in the layout id (the typed
	// unknown-layout error), in the names, and in the varints behind them,
	// each resealed so that it reaches the payload decoder; and a frame cut
	// in the middle of a histogram.
	prefix, tornPayload := payloadOf(torn)
	for _, at := range []int{3, 9, 20, len(tornPayload) / 2, len(tornPayload) - 2} {
		flipped := append([]byte(nil), torn...)
		flipped[len(prefix)+at] ^= 0x81
		f.Add(reseal(flipped))
	}

	// A version-3 frame with the pre-binary JSON payload, whole and cut
	// short: refused by its flags before its payload is read.
	v3, err := os.ReadFile(filepath.Join("testdata", "frame_v3_json.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	for cut := 1; cut < len(v3); cut += max(1, len(v3)/16) {
		f.Add(v3[:cut])
	}

	// The same batches as generations 5 and 6 wrote them (no flagCompact,
	// no flagKept: refused by their flags) and as generation 7 does, and a
	// compact frame whose snapshots are whole (not derived) and whose names
	// share prefixes, with its front-coding spoiled.
	for _, name := range []string{"frame_golden_v5.bin", "frame_golden_v6.bin", "frame_golden_v7.bin"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		for len(golden) > 0 {
			n := 16 + binary.BigEndian.Uint32(golden[8:12]) + binary.BigEndian.Uint32(golden[12:16]) + 4
			f.Add(golden[:n])
			golden = golden[n:]
		}
	}
	rng := rand.New(rand.NewSource(45))
	whole := &Batch{Host: "seed-whole", Seq: 2, Snapshots: []*core.Snapshot{
		hostileSnapshot(rng, "vm-a", "scsi0:0", 0.1), hostileSnapshot(rng, "vm-a", "scsi0:1", 0.1), hostileSnapshot(rng, "vm-b", "scsi0:1", 0.1),
	}}
	wholeData, err := EncodeBatchBytes(whole)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wholeData)
	v5 := append([]byte(nil), wholeData...)
	v5[4], v5[5] = 5, v5[5]&^flagCompact
	f.Add(reseal(v5))
	wholePrefix, _ := payloadOf(wholeData)
	for _, at := range []int{8, 8 + 2 + 4} { // the first VM's and disk's shared length
		spoiled := append([]byte(nil), wholeData...)
		spoiled[len(wholePrefix)+at] = 3
		f.Add(reseal(spoiled))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Validate must be total: error or nil, never a panic.
		b.Validate()
		reenc, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := DecodeBatch(bytes.NewReader(reenc))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if b2.Host != b.Host || b2.Seq != b.Seq || len(b2.Snapshots) != len(b.Snapshots) {
			t.Fatalf("round trip drifted: %q/%d/%d vs %q/%d/%d",
				b.Host, b.Seq, len(b.Snapshots), b2.Host, b2.Seq, len(b2.Snapshots))
		}
		// The delta marker and its base sequence ride the round trip too —
		// losing flagDelta would turn an interval into cumulative state.
		if b2.Delta != b.Delta || b2.BaseSeq != b.BaseSeq {
			t.Fatalf("delta marker drifted: delta %v base %d vs delta %v base %d",
				b.Delta, b.BaseSeq, b2.Delta, b2.BaseSeq)
		}
		// So do the version-2 trace fields — a decoder that dropped them
		// would break end-to-end pipeline tracing silently.
		if b2.TraceID != b.TraceID || b2.CaptureUnixNano != b.CaptureUnixNano {
			t.Fatalf("trace fields drifted: %q/%d vs %q/%d",
				b.TraceID, b.CaptureUnixNano, b2.TraceID, b2.CaptureUnixNano)
		}
		// And the version-3 federation fields — dropping the boot would
		// resurrect the restarted-sender pinning bug, and dropping level or
		// leaves would silently flatten the tier view.
		if b2.Boot != b.Boot || b2.Level != b.Level || b2.Leaves != b.Leaves {
			t.Fatalf("federation fields drifted: %#x/%d/%d vs %#x/%d/%d",
				b.Boot, b.Level, b.Leaves, b2.Boot, b2.Level, b2.Leaves)
		}
		// Whatever decoded is in this binary's one layout, so the round
		// trip keeps every cell and the batch merges.
		for i, s := range b.Snapshots {
			if !b2.Snapshots[i].StateEquals(s) || b2.Snapshots[i].VM != s.VM || b2.Snapshots[i].Disk != s.Disk {
				t.Fatalf("snapshot %d (%s/%s) changed in the round trip", i, s.VM, s.Disk)
			}
		}
		if len(b.Snapshots) > 0 {
			_ = core.Aggregate("fuzz", "*", b.Snapshots...)
		}
	})
}

// FuzzOpenAggregator writes arbitrary bytes as the one segment of a
// one-shard data dir and boots over them. The boot is refused, leaving the
// segment as it was, or it is bin-exact: it holds what a memory-only
// aggregator holds after ingesting the frames of the segment the boot kept,
// decoded one by one, and every one of those frames decodes. Memory stays
// bounded by the input, and nothing panics.
func FuzzOpenAggregator(f *testing.F) {
	var seg []byte
	for h := range 2 {
		_, batches, _ := hostChain(h, 3, 1_700_000_000_000_000_000)
		for _, b := range batches {
			frame, err := EncodeBatchBytes(b)
			if err != nil {
				f.Fatal(err)
			}
			seg = append(seg, frame...)
		}
	}
	f.Add(seg)
	f.Add(seg[:len(seg)*2/3])
	for _, at := range []int{5, 7, 20, len(seg) / 3, len(seg) - 30, len(seg) - 2} {
		flipped := append([]byte(nil), seg...)
		flipped[at] ^= 0x08
		f.Add(flipped)
	}
	for _, name := range []string{"frame_golden.bin", "frame_golden_v5.bin", "frame_golden_v6.bin", "frame_golden_v7.bin", "frame_v3_json.bin"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add([]byte{})
	f.Add([]byte("VSFB"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir, path := oneFrameLog(t, data)
		cfg := logAggConfig(dir)
		cfg.Shards = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, st, err := OpenAggregator(cfg)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20+128*uint64(len(data)) {
			t.Errorf("booting over %d bytes allocated %d", len(data), grew)
		}
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(kept, data) {
				t.Fatalf("a refused boot (%v) changed the segment", err)
			}
			return
		}
		defer g.Close()
		control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
		r := bytes.NewReader(kept)
		var frames int64
		for ; ; frames++ {
			b, err := DecodeBatch(r)
			if err == io.EOF {
				break
			}
			if errors.As(err, new(*UnknownLayoutError)) {
				continue
			}
			if err != nil {
				t.Fatalf("the boot kept frame %d, which does not decode: %v", frames, err)
			}
			control.Ingest(b, "push") // a refused delta leaves state alone, as replay does
		}
		if frames != st.Frames {
			t.Fatalf("boot replayed %d frames of the %d it kept", st.Frames, frames)
		}
		if !sameSnapshot(g.ClusterSnapshot(true), control.ClusterSnapshot(true)) {
			t.Fatal("the boot's state is not the kept frames' state")
		}
	})
}
