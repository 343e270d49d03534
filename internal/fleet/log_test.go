package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// logAggConfig is the segment-logged aggregator every test here opens:
// SyncInterval -1 syncs every append so the on-disk state is deterministic
// at any assertion point.
func logAggConfig(dir string) AggregatorConfig {
	return AggregatorConfig{StaleAfter: time.Hour, Shards: 4, DataDir: dir, SyncInterval: -1}
}

// diskKey names one disk of a host's batch in the tests' own maps.
type diskKey struct{ vm, disk string }

// subSnaps pairs cur with prev by (VM, disk) and returns per-disk interval
// deltas — the test-side copy of what an agent's delta push carries.
func subSnaps(cur, prev []*core.Snapshot) []*core.Snapshot {
	byKey := make(map[diskKey]*core.Snapshot, len(prev))
	for _, s := range prev {
		byKey[diskKey{s.VM, s.Disk}] = s
	}
	out := make([]*core.Snapshot, 0, len(cur))
	for _, s := range cur {
		out = append(out, s.Sub(byKey[diskKey{s.VM, s.Disk}]))
	}
	return out
}

// hostChain builds one host's batch sequence — a full capture followed by
// stages-1 interval deltas, with fresh traffic fed between captures — and
// returns the batches plus the registry holding the final cumulative
// state. Every sent time is sentNano, so tests control the history axis.
func hostChain(hostSeed, stages int, sentNano int64) (string, []*Batch, *core.Registry) {
	host := "esx-" + string(rune('a'+hostSeed))
	reg := makeRegistry(hostSeed, 2, 2, 100)
	prev := reg.Snapshots()
	batches := []*Batch{{Host: host, Seq: 1, SentUnixNano: sentNano, Snapshots: prev}}
	for s := 2; s <= stages; s++ {
		for i, col := range reg.List() {
			feed(col, hostSeed*1000+s*10+i, 80)
		}
		cur := reg.Snapshots()
		batches = append(batches, &Batch{
			Host: host, Seq: uint64(s), SentUnixNano: sentNano,
			Delta: true, BaseSeq: uint64(s - 1), Snapshots: subSnaps(cur, prev),
		})
		prev = cur
	}
	return host, batches, reg
}

// ingestAll feeds batches to g in order, failing the test on any error.
func ingestAll(t *testing.T, g *Aggregator, batches []*Batch) {
	t.Helper()
	for _, b := range batches {
		if err := g.Ingest(b, "push"); err != nil {
			t.Fatalf("ingest host %s seq %d: %v", b.Host, b.Seq, err)
		}
	}
}

// sameMerges asserts got's cluster and per-VM merges are bin-exact against
// want's.
func sameMerges(t *testing.T, label string, got, want *Aggregator) {
	t.Helper()
	if !sameSnapshot(got.ClusterSnapshot(false), want.ClusterSnapshot(false)) {
		t.Errorf("%s: cluster merge not bin-exact", label)
	}
	gv, wv := got.VMSnapshots(false), want.VMSnapshots(false)
	if len(gv) != len(wv) {
		t.Fatalf("%s: %d VM merges, want %d", label, len(gv), len(wv))
	}
	for i := range gv {
		if gv[i].VM != wv[i].VM || !sameSnapshot(gv[i], wv[i]) {
			t.Errorf("%s: per-VM merge %q not bin-exact", label, wv[i].VM)
		}
	}
}

// TestLogReplayRoundTrip is the tentpole's core contract: ingest full and
// delta chains from several hosts into a logged aggregator, drop it, and
// reopen from the same data dir — hosts, sequences, per-VM and cluster
// merges must all come back bin-exact against a never-restarted control,
// and the recovered chains must accept the very next delta with zero
// resyncs.
func TestLogReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 4})
	g, st, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 0 || st.Hosts != 0 {
		t.Fatalf("fresh data dir replayed %+v", st)
	}

	const hosts, stages = 5, 4
	regs := make(map[string]*core.Registry)
	chains := make(map[string][]*Batch)
	for h := 0; h < hosts; h++ {
		host, batches, reg := hostChain(h, stages, time.Now().UnixNano())
		regs[host], chains[host] = reg, batches
		ingestAll(t, g, batches)
		ingestAll(t, control, batches)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	g2, st2, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g2.Close()
	if st2.Frames != hosts*stages || st2.Skipped != 0 || st2.TornTails != 0 || st2.Hosts != hosts {
		t.Fatalf("replay stats %+v, want %d frames / %d hosts, nothing skipped or torn", st2, hosts*stages, hosts)
	}
	for _, hs := range g2.Hosts() {
		if hs.Seq != stages || hs.Source != "log" {
			t.Errorf("replayed host %s at seq %d source %q, want seq %d source log", hs.Host, hs.Seq, hs.Source, stages)
		}
	}
	sameMerges(t, "after replay", g2, control)

	// The recovered chains continue without a single resync: the next
	// delta for every host builds on the replayed sequence and applies.
	for host, reg := range regs {
		for i, col := range reg.List() {
			feed(col, 9000+i, 60)
		}
		cur := reg.Snapshots()
		prev := chains[host][len(chains[host])-1]
		next := &Batch{
			Host: host, Seq: prev.Seq + 1, SentUnixNano: time.Now().UnixNano(),
			Delta: true, BaseSeq: prev.Seq,
			Snapshots: subSnaps(cur, lastFullState(chains[host])),
		}
		if err := g2.Ingest(next, "push"); err != nil {
			t.Fatalf("post-restart delta for %s: %v", host, err)
		}
		if err := control.Ingest(next, "push"); err != nil {
			t.Fatal(err)
		}
	}
	if r := g2.Stats().Resyncs; r != 0 {
		t.Errorf("replayed aggregator demanded %d resyncs, want 0", r)
	}
	sameMerges(t, "after post-restart deltas", g2, control)
}

// lastFullState folds a batch chain into the cumulative state its last
// batch left behind, by the same rules the aggregator applies.
func lastFullState(batches []*Batch) []*core.Snapshot {
	state := batches[0].Snapshots
	for _, b := range batches[1:] {
		if b.Delta {
			state, _ = applyDeltaSnaps(state, b.Snapshots)
		} else {
			state = b.Snapshots
		}
	}
	return state
}

// segFiles lists a data dir's segment files sorted by path.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == segSuffix {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// oneFrameLog writes frame as the only segment of a one-shard log in a
// fresh dir, returning the dir and the segment's path.
func oneFrameLog(t *testing.T, frame []byte) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	seg = segPath(filepath.Join(dir, shardDirName(0)), 1)
	if err := os.MkdirAll(filepath.Dir(seg), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, frame, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, seg
}

// frameOffsets returns the end offset of every whole frame in a segment.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data)
	var offs []int64
	for {
		if _, err := DecodeBatch(r); err != nil {
			break
		}
		offs = append(offs, r.Size()-int64(r.Len()))
	}
	return offs
}

// TestLogTornTailTruncation cuts a shard's only segment at every byte
// inside its final frame — every possible crash-mid-write point — and
// reopens: the open must succeed, count exactly one torn tail, recover
// every whole frame before the cut bin-exactly, and leave the file
// truncated so the next open is clean.
func TestLogTornTailTruncation(t *testing.T) {
	// One shard so the whole log is one chain; three batches so the torn
	// frame has history in front of it.
	dir := t.TempDir()
	cfg := logAggConfig(dir)
	cfg.Shards = 1
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, batches, _ := hostChain(0, 3, time.Now().UnixNano())
	ingestAll(t, g, batches)
	g.Close()

	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("expected one segment, found %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, segs[0])
	if len(offs) != len(batches) {
		t.Fatalf("segment holds %d frames, want %d", len(offs), len(batches))
	}
	lastGood := offs[len(offs)-2]

	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
	ingestAll(t, control, batches[:len(batches)-1])

	// Stride through the cut points so the matrix stays fast but still
	// covers the head, the header and every region of the payload.
	stride := int64(1)
	if span := offs[len(offs)-1] - lastGood; span > 256 {
		stride = span / 256
	}
	for cut := lastGood + 1; cut < offs[len(offs)-1]; cut += stride {
		cutDir := t.TempDir()
		shardDir := filepath.Join(cutDir, shardDirName(0))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		seg := segPath(shardDir, 1)
		if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ccfg := logAggConfig(cutDir)
		ccfg.Shards = 1
		g2, st, err := OpenAggregator(ccfg)
		if err != nil {
			t.Fatalf("cut at byte %d: open failed: %v", cut, err)
		}
		if st.TornTails != 1 || st.Frames != int64(len(batches)-1) {
			t.Fatalf("cut at byte %d: replay stats %+v, want 1 torn tail, %d frames", cut, st, len(batches)-1)
		}
		sameMerges(t, "torn tail", g2, control)
		g2.Close()
		// The torn bytes are gone from disk: a second open sees a clean
		// chain ending at the last whole frame.
		if fi, err := os.Stat(seg); err != nil || fi.Size() != lastGood {
			t.Fatalf("cut at byte %d: file is %d bytes after truncation, want %d", cut, fi.Size(), lastGood)
		}
		g3, st3, err := OpenAggregator(ccfg)
		if err != nil || st3.TornTails != 0 {
			t.Fatalf("cut at byte %d: second open err=%v stats=%+v, want clean", cut, err, st3)
		}
		g3.Close()
	}
}

// TestLogCorruptionRefusesToStart pins the other half of the torn-tail
// rule: bytes that contradict the format (bad magic mid-chain), or a
// truncation anywhere but the newest segment, are corruption — the
// aggregator must refuse to open rather than serve wrong numbers.
func TestLogCorruptionRefusesToStart(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		cfg := logAggConfig(dir)
		cfg.Shards = 1
		cfg.SegmentBytes = 1 // rotate after every append: every frame its own segment
		g, _, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, batches, _ := hostChain(0, 3, time.Now().UnixNano())
		ingestAll(t, g, batches)
		g.Close()
		segs := segFiles(t, dir)
		if len(segs) < 2 {
			t.Fatalf("wanted a multi-segment chain, got %v", segs)
		}
		return dir, segs[0]
	}
	open := func(dir string) error {
		cfg := logAggConfig(dir)
		cfg.Shards = 1
		cfg.SegmentBytes = 1
		_, _, err := OpenAggregator(cfg)
		return err
	}

	t.Run("bad magic", func(t *testing.T) {
		dir, first := build(t)
		data, _ := os.ReadFile(first)
		data[0] ^= 0xff
		os.WriteFile(first, data, 0o644)
		if err := open(dir); err == nil || errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("open over corrupt magic: %v, want a non-truncation refusal", err)
		}
	})
	t.Run("torn mid-chain", func(t *testing.T) {
		dir, first := build(t)
		data, _ := os.ReadFile(first)
		os.WriteFile(first, data[:len(data)/2], 0o644)
		if err := open(dir); err == nil {
			t.Fatal("open succeeded over a truncated non-final segment")
		}
	})
	// Dirs replay concurrently: a corrupt dir refuses the boot whatever a
	// dir replaying beside it does, and the error names the corrupt segment.
	t.Run("corrupt dir beside a torn one", func(t *testing.T) {
		dir := t.TempDir()
		cfg := logAggConfig(dir)
		cfg.SegmentBytes = 1
		g, _, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for h := 0; h < 8; h++ {
			_, batches, _ := hostChain(h, 3, time.Now().UnixNano())
			ingestAll(t, g, batches)
		}
		g.Close()
		var chains [][]string
		for i := 0; i < cfg.Shards; i++ {
			if segs := segFiles(t, filepath.Join(dir, shardDirName(i))); len(segs) >= 2 {
				chains = append(chains, segs)
			}
		}
		if len(chains) < 2 {
			t.Fatalf("wanted two multi-segment dirs, got %d", len(chains))
		}
		torn, corrupt := chains[0][len(chains[0])-1], chains[1][0]
		data, _ := os.ReadFile(torn)
		os.WriteFile(torn, data[:len(data)/2], 0o644)
		data, _ = os.ReadFile(corrupt)
		data[0] ^= 0xff
		os.WriteFile(corrupt, data, 0o644)
		if _, _, err := OpenAggregator(cfg); err == nil || !strings.Contains(err.Error(), corrupt) {
			t.Fatalf("open over a corrupt dir: %v, want a refusal naming %s", err, corrupt)
		}
	})
	// Every appended frame passed Validate at ingest, so a whole frame
	// that fails it is corruption too, not a frame to skip.
	t.Run("frame that fails Validate", func(t *testing.T) {
		frame, err := EncodeBatchBytes(&Batch{Host: "", Seq: 1})
		if err != nil {
			t.Fatal(err)
		}
		dir, seg := oneFrameLog(t, frame)
		if err := open(dir); err == nil || !strings.Contains(err.Error(), seg) {
			t.Fatalf("open over a frame without a host: %v, want a refusal naming %s", err, seg)
		}
	})
}

// TestLogCompactionCrashWindows walks the two ways a crash can interrupt
// compaction. Before the atomic rename: a stray *.tmp sits next to intact
// segments and must be swept at open with nothing lost. After the rename
// but before cleanup: the compacted full frame coexists with the chain it
// replaced, and replaying both in order must be a no-op duplication —
// old frames first, the compacted full (newest sequence, highest segment
// number) last.
func TestLogCompactionCrashWindows(t *testing.T) {
	setup := func(t *testing.T) (string, []*Batch, *Aggregator) {
		dir := t.TempDir()
		cfg := logAggConfig(dir)
		cfg.Shards = 1
		g, _, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, batches, _ := hostChain(0, 3, time.Now().UnixNano())
		ingestAll(t, g, batches)
		g.Close()
		control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
		ingestAll(t, control, batches)
		return dir, batches, control
	}
	reopen := func(t *testing.T, dir string) (*Aggregator, ReplayStats) {
		cfg := logAggConfig(dir)
		cfg.Shards = 1
		g, st, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g, st
	}

	t.Run("before rename", func(t *testing.T) {
		dir, _, control := setup(t)
		shardDir := filepath.Join(dir, shardDirName(0))
		tmp := segPath(shardDir, 1) + tmpSuffix
		if err := os.WriteFile(tmp, []byte("half-written compaction output"), 0o644); err != nil {
			t.Fatal(err)
		}
		g, st := reopen(t, dir)
		defer g.Close()
		if st.TornTails != 0 || st.Skipped != 0 {
			t.Errorf("replay stats %+v, want clean", st)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Error("stray compaction tmp survived open")
		}
		sameMerges(t, "tmp swept", g, control)
	})
	t.Run("after rename, cleanup lost", func(t *testing.T) {
		dir, batches, control := setup(t)
		// The compacted replacement landed as a later segment, but the
		// crash hit before the chain it replaces was deleted.
		full := &Batch{
			Host: batches[0].Host, Seq: batches[len(batches)-1].Seq,
			SentUnixNano: batches[len(batches)-1].SentUnixNano,
			Snapshots:    lastFullState(batches),
		}
		frame, err := EncodeBatchBytes(full)
		if err != nil {
			t.Fatal(err)
		}
		shardDir := filepath.Join(dir, shardDirName(0))
		if err := os.WriteFile(segPath(shardDir, 2), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		g, st := reopen(t, dir)
		defer g.Close()
		if st.Frames != int64(len(batches))+1 {
			t.Errorf("replayed %d frames, want the chain plus its compacted duplicate", st.Frames)
		}
		sameMerges(t, "duplicate chain", g, control)
		if hs := g.Hosts(); len(hs) != 1 || hs[0].Seq != full.Seq {
			t.Errorf("hosts after duplicated replay: %+v", hs)
		}
	})
}

// TestLogCrashRecoveryMatrix extends the BreakStream merge-equivalence
// property to the durability layer: for every point in a multi-host
// full-and-delta ingest sequence, crash there (with the next frame half
// written, or written whole with a payload bit flipped — the torn tail),
// reopen, finish the sequence, and require the final cluster and per-VM
// merges bin-exact against a never-restarted control. The property composes
// the codec round-trip, the strict apply rules, torn-tail truncation, and
// replay ordering in one assertion. A payload bit flipped in a frame with
// bytes after it is corruption instead: the boot is refused with
// ErrChecksum and the segment left as it was.
func TestLogCrashRecoveryMatrix(t *testing.T) {
	const hosts, stages = 3, 3
	var script []*Batch
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 2})
	for h := 0; h < hosts; h++ {
		_, batches, _ := hostChain(h, stages, time.Now().UnixNano())
		script = append(script, batches...)
	}
	ingestAll(t, control, script)

	for crash := 1; crash < len(script); crash++ {
		for _, tear := range []string{"half written", "payload bit flipped", "earlier frame flipped"} {
			dir := t.TempDir()
			cfg := logAggConfig(dir)
			cfg.Shards = 2
			g1, _, err := OpenAggregator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestAll(t, g1, script[:crash])
			g1.Close()

			// The crash interrupts the next frame mid-write: append what
			// reached the disk to the shard chain it would have landed on.
			next := script[crash]
			frame, err := EncodeBatchBytes(next)
			if err != nil {
				t.Fatal(err)
			}
			idx := g1.ShardFor(next.Host)
			shardDir := filepath.Join(dir, shardDirName(idx))
			if err := os.MkdirAll(shardDir, 0o755); err != nil {
				t.Fatal(err)
			}
			tail := segPath(shardDir, 1)
			if segs := segFiles(t, shardDir); len(segs) > 0 {
				tail = segs[len(segs)-1]
			}
			before, _ := os.ReadFile(tail)
			written := frame[:len(frame)/2]
			if tear == "payload bit flipped" {
				_, payload := payloadOf(frame)
				payload[len(payload)/2] ^= 0x04
				written = frame
			} else if tear == "earlier frame flipped" {
				if len(before) == 0 {
					continue // no frame before the tail on this shard
				}
				_, payload := payloadOf(before)
				payload[len(payload)/2] ^= 0x04
				if err := os.WriteFile(tail, before, 0o644); err != nil {
					t.Fatal(err)
				}
				written = frame
			}
			f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(written)
			f.Close()

			g2, st, err := OpenAggregator(cfg)
			if tear == "earlier frame flipped" {
				after, _ := os.ReadFile(tail)
				if !errors.Is(err, ErrChecksum) || !bytes.Equal(after, append(before, frame...)) {
					t.Fatalf("crash at %d, %s: boot %v, segment kept %t; want ErrChecksum and the segment as it was",
						crash, tear, err, bytes.Equal(after, append(before, frame...)))
				}
				continue
			}
			if err != nil {
				t.Fatalf("crash at %d, %s: reopen: %v", crash, tear, err)
			}
			if st.TornTails != 1 {
				t.Fatalf("crash at %d, %s: %d torn tails, want 1", crash, tear, st.TornTails)
			}
			// The sender retries the interrupted batch (its push never got
			// a 200), then the rest of the fleet carries on.
			ingestAll(t, g2, script[crash:])
			if r := g2.Stats().Resyncs; r != 0 {
				t.Errorf("crash at %d, %s: %d resyncs after recovery, want 0", crash, tear, r)
			}
			sameMerges(t, "crash matrix, "+tear, g2, control)
			g2.Close()
		}
	}
}

// TestLogRotationAndCompaction forces rotation on every append and
// compaction every three sealed segments: the chain must stay small, the
// counters must show the maintenance happened, and a reopen of the
// compacted log must still reconstruct the exact state.
func TestLogRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := logAggConfig(dir)
	cfg.Shards = 1
	cfg.SegmentBytes = 1
	cfg.CompactSegments = 3
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
	_, batches, _ := hostChain(0, 12, time.Now().UnixNano())
	ingestAll(t, g, batches)
	ingestAll(t, control, batches)

	st := g.LogStats()
	if !st.Enabled || st.Rotations < 10 || st.Compactions < 1 {
		t.Fatalf("log stats after 12 one-frame segments: %+v", st)
	}
	if st.Segments > cfg.CompactSegments+2 {
		t.Errorf("compaction left %d segments, want <= %d", st.Segments, cfg.CompactSegments+2)
	}
	g.Close()

	g2, rst, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if rst.Skipped != 0 {
		// Deltas whose base frame was compacted away would be skipped;
		// compaction must rewrite chains so that never happens.
		t.Errorf("replay of compacted log skipped %d frames", rst.Skipped)
	}
	sameMerges(t, "compacted log", g2, control)
	if hs := g2.Hosts(); len(hs) != 1 || hs[0].Seq != uint64(len(batches)) {
		t.Errorf("hosts after compacted replay: %+v", hs)
	}
}

// TestLogRetentionSweep pins the retention rule: sealed segments whose
// newest frame is older than the horizon are dropped at rotation, whole
// segments at a time, and a replay of what remains still reconstructs the
// newest state when the chain is full frames.
func TestLogRetentionSweep(t *testing.T) {
	dir := t.TempDir()
	cfg := logAggConfig(dir)
	cfg.Shards = 1
	cfg.SegmentBytes = 1
	cfg.CompactSegments = -1 // isolate retention from compaction
	cfg.Retention = time.Hour
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := makeRegistry(0, 1, 1, 100)
	old := time.Now().Add(-2 * time.Hour).UnixNano()
	for seq := uint64(1); seq <= 4; seq++ {
		feed(reg.List()[0], int(seq), 50)
		if err := g.Ingest(&Batch{Host: "esx-a", Seq: seq, SentUnixNano: old, Snapshots: reg.Snapshots()}, "push"); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh batch rotates and sweeps: every sealed segment above is
	// beyond the horizon.
	feed(reg.List()[0], 99, 50)
	if err := g.Ingest(&Batch{Host: "esx-a", Seq: 5, SentUnixNano: time.Now().UnixNano(), Snapshots: reg.Snapshots()}, "push"); err != nil {
		t.Fatal(err)
	}
	st := g.LogStats()
	if st.SegmentsRetired < 3 {
		t.Fatalf("retention retired %d segments, want >= 3 (stats %+v)", st.SegmentsRetired, st)
	}
	g.Close()

	g2, rst, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if rst.Frames >= 5 {
		t.Errorf("replayed %d frames, want the swept chain only", rst.Frames)
	}
	if got := g2.ClusterSnapshot(false); !sameSnapshot(got, core.Aggregate("cluster", "*", reg.Snapshots()...)) {
		t.Error("post-retention replay lost the newest state")
	}
}

// TestLogRestartZeroResync is the fleet-amnesia acceptance test from the
// agent's side: with a data dir, an aggregator restart is invisible — the
// replayed sequence numbers let the agent's very next delta apply, where a
// memory-only aggregator would answer 409 and force a full resync (the
// TestAgentResyncsAfterAggregatorRestart behavior this PR exists to make
// optional).
func TestLogRestartZeroResync(t *testing.T) {
	dir := t.TempDir()
	var agg atomic.Pointer[Aggregator]
	g1, _, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	agg.Store(g1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agg.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := makeRegistry(7, 1, 2, 200)
	a := NewAgent(reg, AgentConfig{Host: "esx-g", Endpoint: srv.URL + "/fleet/push"})
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	feed(reg.List()[0], 800, 50)
	if err := a.PushNow(); err != nil { // establishes the delta chain
		t.Fatal(err)
	}

	// Restart: the replacement replays the log instead of starting blank.
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}
	g2, st, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if st.Hosts != 1 {
		t.Fatalf("replay recovered %d hosts, want 1", st.Hosts)
	}
	agg.Store(g2)

	feed(reg.List()[1], 801, 50)
	if err := a.PushNow(); err != nil {
		t.Fatalf("push across aggregator restart: %v", err)
	}
	if got := a.Stats().Resyncs; got != 0 {
		t.Errorf("agent resyncs across logged restart = %d, want 0", got)
	}
	if got := g2.Stats().DeltasApplied; got < 1 {
		t.Errorf("replayed aggregator applied %d deltas, want the post-restart one", got)
	}
	if got := g2.ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(reg)) {
		t.Error("post-restart cluster view diverged from the registry")
	}
}

// TestLogShardCountShrink reopens a log written with more shards than the
// new configuration: orphan shard dirs must replay (hosts route by hash,
// not by dir), be rewritten into the current shards, and disappear.
func TestLogShardCountShrink(t *testing.T) {
	dir := t.TempDir()
	wide := logAggConfig(dir)
	wide.Shards = 8
	g, _, err := OpenAggregator(wide)
	if err != nil {
		t.Fatal(err)
	}
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 2})
	var script []*Batch
	for h := 0; h < 6; h++ {
		_, batches, _ := hostChain(h, 2, time.Now().UnixNano())
		script = append(script, batches...)
	}
	ingestAll(t, g, script)
	ingestAll(t, control, script)
	g.Close()

	narrow := logAggConfig(dir)
	narrow.Shards = 2
	g2, st, err := OpenAggregator(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hosts != 6 {
		t.Fatalf("recovered %d hosts across the shrink, want 6 (stats %+v)", st.Hosts, st)
	}
	sameMerges(t, "shard shrink", g2, control)
	g2.Close()
	// The orphan dirs are gone, and a plain reopen sees everything.
	for i := narrow.Shards; i < wide.Shards; i++ {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(i))); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the rewrite", shardDirName(i))
		}
	}
	g3, st3, err := OpenAggregator(narrow)
	if err != nil || st3.Hosts != 6 {
		t.Fatalf("second open after shrink: err=%v stats=%+v", err, st3)
	}
	g3.Close()
}

// TestLogShardCountGrow reopens a log with more shards than it was written
// with, ingests more deltas, and reopens again. A host whose new home dir
// replays before its old one must not lose its chain: the boot after the
// resize moves every host's state home, so the second reopen skips nothing.
func TestLogShardCountGrow(t *testing.T) {
	dir := t.TempDir()
	narrow := logAggConfig(dir)
	wide := logAggConfig(dir)
	wide.Shards = 6
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: wide.Shards})
	var before, after []*Batch
	movedDown := 0
	for h := 0; h < 12; h++ {
		host, batches, _ := hostChain(h, 4, time.Now().UnixNano())
		before = append(before, batches[:2]...)
		after = append(after, batches[2:]...)
		if shardHash(host)%uint32(wide.Shards) < shardHash(host)%uint32(narrow.Shards) {
			movedDown++
		}
	}
	if movedDown == 0 {
		t.Fatal("no host's home dir sorts before its old one; the test proves nothing")
	}
	ingestAll(t, control, append(append([]*Batch(nil), before...), after...))

	for i, step := range []struct {
		cfg     AggregatorConfig
		batches []*Batch
	}{{narrow, before}, {wide, after}, {wide, nil}} {
		g, st, err := OpenAggregator(step.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Skipped != 0 {
			t.Errorf("open %d (%d shards): %d frames skipped", i, step.cfg.Shards, st.Skipped)
		}
		ingestAll(t, g, step.batches)
		if i == 2 {
			sameMerges(t, "reopen after growth", g, control)
		}
		g.Close()
	}
}

// chainsOf returns every host's stored chain, by host name.
func chainsOf(g *Aggregator) map[string][]*core.Snapshot {
	out := map[string][]*core.Snapshot{}
	for _, sh := range g.shards {
		for _, b := range sh.fullBatches() {
			out[b.Host] = b.Snapshots
		}
	}
	return out
}

// TestReplaySkipsRefusedDeltaUntouched puts a well-formed delta mid-chain
// in the log that names every disk of the host and then one it lacks. Boot
// replay adds deltas in place, so the known disks must stay unwritten when
// the unknown one refuses the frame: boot skips it, and the next delta
// lands on the untouched chain, as it does in live ingest of the same
// frames.
func TestReplaySkipsRefusedDeltaUntouched(t *testing.T) {
	host, batches, reg := hostChain(4, 3, time.Now().UnixNano())
	stranger := makeRegistry(9, 1, 1, 30).Snapshots()
	bad := *batches[2]
	bad.Snapshots = append(slices.Clone(bad.Snapshots), stranger...)
	frame, err := EncodeBatchBytes(&bad)
	if err != nil {
		t.Fatal(err)
	}

	cfg := AggregatorConfig{StaleAfter: time.Hour, Shards: 1, DataDir: t.TempDir(), SyncInterval: -1}
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
	ingestAll(t, g, batches[:2])
	ingestAll(t, control, batches[:2])
	if err := control.Ingest(&bad, "push"); resyncCauseOf(err) != ResyncUnknownDisk {
		t.Fatalf("live ingest of the delta naming a stranger disk: %v, want an unknown-disk resync", err)
	}
	file, err := os.OpenFile(g.log.shards[0].active.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, g, batches[2:])
	ingestAll(t, control, batches[2:])
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2, st, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if st.Frames != 4 || st.Skipped != 1 {
		t.Errorf("replayed %d frames, skipped %d; want 4 and 1", st.Frames, st.Skipped)
	}
	if !sameSnapshot(g2.ClusterSnapshot(false), control.ClusterSnapshot(false)) ||
		!sameSnapshot(g2.ClusterSnapshot(false), hostSnapshot(reg)) {
		t.Error("boot over the refused delta is not the state live ingest of the same frames holds")
	}
	sameMerges(t, "booted", g2, control)
	if hs := g2.Hosts(); len(hs) != 1 || hs[0].Host != host || hs[0].Seq != 3 {
		t.Errorf("booted hosts %+v, want %s at seq 3", hs, host)
	}
}

// TestSnapshotsHandedOutAfterBootNeverChange boots from a log of full and
// delta chains — which replay adds in place — then keeps everything a
// reader can get: the cluster and per-VM merges and every chain's
// snapshots. Live deltas pushed afterwards must build new snapshots: all
// that was handed out stays bit-identical.
func TestSnapshotsHandedOutAfterBootNeverChange(t *testing.T) {
	cfg := logAggConfig(t.TempDir())
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var regs []*core.Registry
	var next []*Batch // each host's next delta, pushed after the boot
	for h := range 3 {
		host, batches, reg := hostChain(h, 4, time.Now().UnixNano())
		ingestAll(t, g, batches)
		prev := reg.Snapshots()
		for i, col := range reg.List() {
			feed(col, 900+h*10+i, 60)
		}
		next = append(next, &Batch{Host: host, Seq: 5, BaseSeq: 4, Delta: true, Snapshots: subSnaps(reg.Snapshots(), prev)})
		regs = append(regs, reg)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	g2, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	var held []*core.Snapshot
	held = append(held, g2.ClusterSnapshot(false))
	held = append(held, g2.VMSnapshots(false)...)
	for _, snaps := range chainsOf(g2) {
		held = append(held, snaps...)
	}
	kept := slices.Clone(held)
	core.MakeWritable(kept)

	ingestAll(t, g2, next)
	var want []*core.Snapshot
	for _, reg := range regs {
		want = append(want, reg.Snapshots()...)
	}
	if !sameSnapshot(g2.ClusterSnapshot(false), core.Aggregate("cluster", "*", want...)) {
		t.Fatal("the live deltas did not land")
	}
	for i := range held {
		if !held[i].StateEquals(kept[i]) {
			t.Errorf("snapshot %d (%s/%s) handed out after boot changed under a live delta", i, held[i].VM, held[i].Disk)
		}
	}
}

// TestLogReadsKeepNoFrameBytes pins the segment walker's ownership rule: a
// frame read from the log lives only until the next read, which reuses its
// buffer. The shards hold chains whose frames grow and shrink — a 16-disk
// full frame, 1-disk deltas, then another host's full frame, hosts named at
// different lengths — so a reused buffer always holds a longer frame's stale
// bytes behind a shorter one. Boot replay, History windows and a torn tail
// after a large frame must each match live ingest per host and per disk,
// names included; and walking a segment allocates no buffer per frame.
func TestLogReadsKeepNoFrameBytes(t *testing.T) {
	type host struct {
		name string
		reg  *core.Registry
		seq  uint64
		prev []*core.Snapshot
	}
	t0 := time.Unix(1_700_000_000, 0)
	at := func(step int) time.Time { return t0.Add(time.Duration(step) * time.Second) }
	// schedule sends each host a full frame on rounds 0 and 2 and three
	// 1-disk deltas on every round; it returns every batch in send order and
	// the host each was for.
	schedule := func(names ...string) (batches []*Batch) {
		hosts := make([]*host, len(names))
		for i, n := range names {
			hosts[i] = &host{name: n, reg: makeRegistry(i, 4, 4, 60)}
		}
		for round := range 4 {
			for _, h := range hosts {
				for k := range 4 {
					if k > 0 || round%2 == 1 {
						feed(h.reg.List()[(round*3+k)%16], len(batches)*7, 25)
					}
					cur := h.reg.Snapshots()
					h.seq++
					b := &Batch{Host: h.name, Seq: h.seq, SentUnixNano: at(len(batches) + 1).UnixNano(), Snapshots: cur}
					if k > 0 || round%2 == 1 {
						b.Delta, b.BaseSeq = true, h.seq-1
						b.Snapshots, _ = new(chain).subAgainst(cur, h.prev)
					}
					h.prev = cur
					batches = append(batches, b)
				}
			}
		}
		return batches
	}
	sameChains := func(t *testing.T, label string, got, want map[string][]*core.Snapshot) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hosts, want %d", label, len(got), len(want))
		}
		for h, w := range want {
			g := got[h]
			if len(g) != len(w) {
				t.Fatalf("%s: host %s has %d disks, want %d", label, h, len(g), len(w))
			}
			for i := range w {
				if g[i].VM != w[i].VM || g[i].Disk != w[i].Disk || !g[i].StateEquals(w[i]) {
					t.Fatalf("%s: host %s disk %s/%s differs from live ingest", label, h, w[i].VM, w[i].Disk)
				}
			}
		}
	}

	t.Run("replay and history", func(t *testing.T) {
		cfg := logAggConfig(t.TempDir())
		cfg.Shards = 2
		g, _, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches := schedule("h0", "esx-host-with-a-long-name-1", "h2-mid", "esx-3")
		live := []map[string][]*core.Snapshot{{}} // every host's live chain after each step
		for _, b := range batches {
			ingestAll(t, g, []*Batch{b})
			live = append(live, chainsOf(g))
		}
		g.Close()
		g, st, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if st.Frames != int64(len(batches)) || st.Skipped != 0 {
			t.Fatalf("replay stats %+v, want %d frames and none skipped", st, len(batches))
		}
		sameChains(t, "boot replay", chainsOf(g), live[len(batches)])
		for _, w := range [][2]int{{0, len(batches)}, {3, 9}, {4, 20}, {17, 40}, {33, 34}, {50, len(batches)}} {
			from, to := w[0], w[1]
			want := map[diskKey]*core.Snapshot{}
			for hostName, end := range live[to] {
				changed := false
				for s := from; s < to; s++ {
					changed = changed || batches[s].Host == hostName
				}
				if !changed {
					continue
				}
				base := map[diskKey]*core.Snapshot{}
				for _, s := range live[from][hostName] {
					base[diskKey{s.VM, s.Disk}] = s
				}
				for _, s := range end {
					want[diskKey{s.VM, s.Disk}] = core.IntervalSince(base[diskKey{s.VM, s.Disk}], s)
				}
			}
			var mu sync.Mutex // the dirs' goroutines hand in their disks
			var windows []*core.Snapshot
			res := g.windows(at(from), at(to), func(_ int, base, end *core.Snapshot) {
				mu.Lock()
				defer mu.Unlock()
				windows = append(windows, core.IntervalSince(base, end))
			})
			if res.Dropped != 0 || len(windows) != len(want) {
				t.Fatalf("window (%d, %d]: %d disk windows and %d drops, want %d and none", from, to, len(windows), res.Dropped, len(want))
			}
			for _, got := range windows {
				if w := want[diskKey{got.VM, got.Disk}]; w == nil || !got.StateEquals(w) {
					t.Fatalf("window (%d, %d]: disk %s/%s differs from live ingest", from, to, got.VM, got.Disk)
				}
			}
		}
	})

	t.Run("torn tail after a large frame", func(t *testing.T) {
		cfg := logAggConfig(t.TempDir())
		cfg.Shards = 1
		g, _, err := OpenAggregator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches := schedule("esx-host-with-a-long-name-0", "h1")[:6] // host 0's full and 3 deltas, then host 1's full and a delta
		ingestAll(t, g, batches)
		g.Close()
		seg := segFiles(t, cfg.DataDir)[0]
		whole, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		offs := frameOffsets(t, seg) // each frame's end
		if len(offs) != len(batches) || offs[4]-offs[3] < 4*(offs[5]-offs[4]) {
			t.Fatalf("frame ends %v: want six frames, the fifth a full frame past four times the sixth", offs)
		}
		for cut := offs[3] + 1; cut < offs[5]; cut += max(1, (offs[5]-offs[3])/48) {
			kept := len(batches) - 1 // the frames before the cut
			if cut < offs[4] {
				kept--
			}
			control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
			ingestAll(t, control, batches[:kept])
			if err := os.WriteFile(seg, whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			g, st, err := OpenAggregator(cfg)
			if err != nil {
				t.Fatalf("cut at byte %d: %v", cut, err)
			}
			if st.TornTails != 1 || st.Frames != int64(kept) {
				t.Fatalf("cut at byte %d: replay stats %+v, want 1 torn tail and %d frames", cut, st, kept)
			}
			sameChains(t, "torn tail", chainsOf(g), chainsOf(control))
			g.Close()
		}
	})

	t.Run("no buffer per frame", func(t *testing.T) {
		dir, states := t.TempDir(), chainStates()
		var raw []byte
		paths := map[int]string{}
		for v := range states {
			for k := range states[v] {
				frame, err := EncodeBatchBytes(chainBatch(fmt.Sprintf("esx-%d", v), k, states[v], t0))
				if err != nil {
					t.Fatal(err)
				}
				raw = append(raw, frame...)
			}
			if n := (v + 1) * len(states[v]); n == 8 || n == 64 {
				paths[n] = filepath.Join(dir, fmt.Sprintf("%d.seg", n))
				if err := os.WriteFile(paths[n], raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		w := walkers.New().(*segmentWalker)
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				frames := 0
				if err := w.walk(paths[n], func(_ *frame, err error) error { frames++; return err }); err != nil || frames != n {
					t.Fatalf("walked %d of %d frames: %v", frames, n, err)
				}
			})
		}
		// A walk allocates a host's name when it first reads it, and nothing
		// more per frame: the frame, its Batch, its buffer and the names
		// are the walker's, whatever the count. The 8 frames are one host's,
		// the 64 eight hosts'.
		a8, a64 := allocs(8), allocs(64)
		if a64 > a8+7 {
			t.Errorf("walking 64 frames of 8 hosts allocates %.0f times, 8 frames of 1 host %.0f: more than a name per host", a64, a8)
		}
	})
}
