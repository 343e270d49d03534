package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// applyDeltaSnaps is the aggregator's delta fold as it was before deltas
// were decoded onto their base: a delta batch decoded on its own, then
// applied disk by disk with core.ApplyDelta. It is the reference the decoder
// is checked against. Disks omitted from the delta carry over by reference.
func applyDeltaSnaps(base, deltas []*core.Snapshot) ([]*core.Snapshot, error) {
	byKey := make(map[diskKey]int, len(base))
	for i, s := range base {
		byKey[diskKey{s.VM, s.Disk}] = i
	}
	out := append([]*core.Snapshot(nil), base...)
	for _, d := range deltas {
		i, ok := byKey[diskKey{d.VM, d.Disk}]
		if !ok {
			return nil, fmt.Errorf("delta for disk %s/%s with no base state", d.VM, d.Disk)
		}
		out[i] = out[i].ApplyDelta(d)
	}
	return out, nil
}

// errDense is decodeDense's one failure: the payload contradicts its form.
var errDense = badFrame("the dense reference cannot read the payload")

// decodeDense reads a compact payload a second way, written apart from the
// decoder so the fuzz target compares two implementations: every snapshot
// starts from zeros and each histogram is read whole into its cells, then
// each class-all histogram is made dense from its reads and writes, and a
// derived snapshot's counters from I/O length. Whole names are compared to
// keep the disks in (VM, disk) order, each named once.
func decodeDense(payload []byte, count int) (out []*core.Snapshot, err error) {
	if count < 0 || count > len(payload)/layout.minBytes || count > maxDecodedLen/layout.decodedBytes {
		return nil, errDense
	}
	defer func() {
		if recover() != nil {
			out, err = nil, errDense
		}
	}()
	next := func() uint64 {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			panic(errDense)
		}
		payload = payload[n:]
		return v
	}
	zz := func() int64 { v := next(); return int64(v>>1) ^ -int64(v&1) }
	name := func(prev string) string {
		shared, n := next(), next()
		if shared > uint64(len(prev)) || n > uint64(len(payload)) {
			panic(errDense)
		}
		s := prev[:shared] + string(payload[:n])
		payload = payload[n:]
		return s
	}
	if count > 0 {
		out = make([]*core.Snapshot, count)
		core.MakeWritable(out)
	}
	var vm, disk string
	for j, s := range out {
		prevVM, prevDisk := vm, disk
		vm, disk = name(vm), name(disk)
		if j > 0 && (vm < prevVM || vm == prevVM && disk <= prevDisk) {
			panic(errDense)
		}
		s.VM, s.Disk = vm, disk
		flags := next()
		if flags > snapDerived {
			panic(errDense)
		}
		derived := flags == snapDerived
		if derived {
			s.Errors = zz()
		} else {
			s.Commands, s.NumReads, s.NumWrites = zz(), zz(), zz()
			s.ReadBytes, s.WriteBytes, s.Errors = zz(), zz(), zz()
		}
		cells := s.Cells()
		for k := range layout.hists {
			if derived && isAll(&layout.hists[k]) {
				continue
			}
			h := layout.hists[k].Of(cells)
			n := len(h) - 4
			if !derived {
				h[n+1] = zz()
			}
			h[n], h[n+2], h[n+3] = zz(), zz(), zz()
			nnz := next()
			if nnz > uint64(n) {
				panic(errDense)
			}
			for i := -1; nnz > 0; nnz-- {
				gap := next()
				if gap >= uint64(n-i-1) {
					panic(errDense)
				}
				i += int(gap) + 1
				h[i] = zz()
			}
		}
		for _, all := range []bool{false, true} { // class-all reads its reads' and writes' totals
			for k := range layout.hists {
				if isAll(&layout.hists[k]) != all {
					continue
				}
				h := layout.hists[k].Of(cells)
				n := len(h) - 4
				if all { // bins and sum are reads + writes (+ the residual)
					r, w := layout.hists[k+1].Of(cells), layout.hists[k+2].Of(cells)
					for j := range n + 1 {
						h[j] += r[j] + w[j]
					}
					switch {
					case !derived:
					case r[n+1] == 0 && r[n+2] == 0 && r[n+3] == 0:
						h[n+2], h[n+3] = w[n+2], w[n+3]
					case w[n+1] == 0 && w[n+2] == 0 && w[n+3] == 0:
						h[n+2], h[n+3] = r[n+2], r[n+3]
					default:
						h[n+2], h[n+3] = min(r[n+2], w[n+2]), max(r[n+3], w[n+3])
					}
				}
				for _, c := range h[:n] {
					h[n+1] += c
				}
			}
		}
		if derived {
			r, w := layout.hists[1].Of(cells), layout.hists[2].Of(cells) // I/O length's reads and writes
			n := len(r) - 4
			s.NumReads, s.NumWrites, s.ReadBytes, s.WriteBytes = r[n+1], w[n+1], r[n], w[n]
			s.Commands = s.NumReads + s.NumWrites
		}
	}
	if len(payload) != 0 {
		return nil, errDense
	}
	return out, nil
}

// snapsOf encodes snaps as a payload's snapshot bytes (after the layout id).
func snapsOf(t testing.TB, snaps []*core.Snapshot) []byte {
	t.Helper()
	p, err := appendPayload(nil, snaps)
	if err != nil {
		t.Fatal(err)
	}
	return p[8:]
}

// FuzzApplyDeltaPayload checks the decoder's fold against a dense reading:
// decoding a payload onto a base must either fail — a bad frame or an
// unknown disk, exactly where the reference fails — or give, disk for disk,
// what decodeDense followed by core.ApplyDelta gives. It must never write a
// shared base, and what it allocates is bounded by the base, however many
// snapshots the payload claims. Decoding in place onto a private copy
// of the base fails alike and gives the same disks, and a failure leaves
// the copy as it was. Decoding onto nothing must match decodeDense alone.
func FuzzApplyDeltaPayload(f *testing.F) {
	reg := makeRegistry(3, 2, 3, 150)
	base := reg.Snapshots()
	kept := append([]*core.Snapshot(nil), base...)
	core.MakeWritable(kept)

	cols := reg.List()
	feed(cols[1], 11, 70)
	feed(cols[4], 12, 40)
	cur := reg.Snapshots()
	partial, _ := new(chain).subAgainst(cur, base)
	every := subSnaps(cur, base)
	backwards := subSnaps(base, cur)
	reversed := []*core.Snapshot{every[5], every[3], every[0]}
	twice := []*core.Snapshot{every[1], every[1]}
	foreign := makeRegistry(8, 10, 10, 0).Snapshots() // a hundred disks the base lacks
	for _, snaps := range [][]*core.Snapshot{nil, partial, every, backwards, reversed, twice, foreign, append(partial, foreign[0])} {
		p := snapsOf(f, snaps)
		f.Add(p, len(snaps))
		f.Add(append(p, 0), len(snaps))
		if len(p) > 0 {
			flipped := append([]byte(nil), p...)
			flipped[len(p)/2] ^= 0x21
			f.Add(flipped, len(snaps))
			f.Add(p[:len(p)*2/3], len(snaps))
		}
	}
	// A disk named twice, the first time whole, which is refused as twice
	// and reversed are; and a whole delta alone, which must add as
	// ApplyDelta does.
	whole := []*core.Snapshot{every[1], every[1], every[2]}
	core.MakeWritable(whole[:1])
	whole[0].Cells()[0]++ // class-all I/O length ≠ reads + writes
	core.MakeWritable(whole[2:])
	whole[2].Commands++
	f.Add(snapsOf(f, whole[:2]), 2)
	f.Add(snapsOf(f, whole[2:]), 1)
	// A disk named three times, refused; a delta whose reads class has no
	// samples and extrema (0, 0), so class-all's are the writes'; and every
	// bin of every histogram non-zero.
	f.Add(snapsOf(f, []*core.Snapshot{every[4], every[4], every[4]}), 3)
	writer := core.NewCollector(base[2].VM, base[2].Disk)
	writer.Enable()
	feedShape(writer, 5, 30, 16, false, true)
	f.Add(snapsOf(f, []*core.Snapshot{writer.Snapshot()}), 1)
	rng := rand.New(rand.NewSource(46))
	dense := []*core.Snapshot{hostileSnapshot(rng, base[0].VM, base[0].Disk, 1), hostileSnapshot(rng, base[5].VM, base[5].Disk, 1)}
	f.Add(snapsOf(f, dense), 2)
	// The most a delta can stage: every base disk named, every bin
	// non-zero. Staging stays within the bound even from a cold pool.
	var most []*core.Snapshot
	for _, s := range base {
		most = append(most, hostileSnapshot(rng, s.VM, s.Disk, 1))
	}
	f.Add(snapsOf(f, most), len(most))
	bound := uint64(len(base)+1)*uint64(2*layout.decodedBytes) + 64<<10

	f.Fuzz(func(t *testing.T, payload []byte, count int) {
		var got []*core.Snapshot
		var err error
		grew := uint64(math.MaxUint64)
		for range 2 { // the smaller of two, so another goroutine's allocation is not counted
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err = decodePayload(payload, count, base, false)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > bound {
			t.Errorf("decoding %d snapshots onto a %d-disk base allocated %d bytes, over %d", count, len(base), grew, bound)
		}
		for i := range base {
			if !base[i].StateEquals(kept[i]) {
				t.Fatalf("decode wrote base disk %d", i)
			}
		}

		own := slices.Clone(base)
		core.MakeWritable(own)
		_, ierr := decodePayload(payload, count, own, true)

		deltas, derr := decodeDense(payload, count)
		want, werr := deltas, derr
		if derr == nil {
			want, werr = applyDeltaSnaps(base, deltas)
		}
		for mode, out := range map[string]struct {
			snaps []*core.Snapshot
			err   error
		}{"onto base": {got, err}, "in place": {own, ierr}} {
			got, err := out.snaps, out.err
			switch {
			case derr != nil:
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("reference decode fails (%v), decode %s gives %v", derr, mode, err)
				}
			case werr != nil:
				if resyncCauseOf(err) != ResyncUnknownDisk {
					t.Fatalf("reference apply fails (%v), decode %s gives %v", werr, mode, err)
				}
			case err != nil:
				t.Fatalf("reference succeeds, decode %s fails: %v", mode, err)
			default:
				if len(got) != len(want) {
					t.Fatalf("decode %s: %d disks, want %d", mode, len(got), len(want))
				}
				for i := range want {
					if got[i].VM != want[i].VM || got[i].Disk != want[i].Disk || !got[i].StateEquals(want[i]) {
						t.Fatalf("decode %s: disk %d differs from decode + ApplyDelta", mode, i)
					}
				}
			}
		}
		if ierr != nil {
			for i := range base {
				if !own[i].StateEquals(base[i]) {
					t.Fatalf("failed decode in place (%v) wrote disk %d", ierr, i)
				}
			}
		}

		full, err := decodePayload(payload, count, nil, false)
		if (err == nil) != (derr == nil) || (err != nil && !errors.Is(err, ErrBadFrame)) {
			t.Fatalf("decode onto nothing: %v, reference: %v", err, derr)
		}
		for i := range full {
			if full[i].VM != deltas[i].VM || full[i].Disk != deltas[i].Disk || !full[i].StateEquals(deltas[i]) {
				t.Fatalf("snapshot %d differs from the reference decode", i)
			}
		}
	})
}

// TestDecodeInPlaceMatchesApplyDelta folds the same chain of deltas twice,
// once with core.ApplyDelta and once by decoding each onto an owned chain
// in place, starting from the empty snapshot: the two agree after every
// step, names and extrema included, and the payload is not written.
func TestDecodeInPlaceMatchesApplyDelta(t *testing.T) {
	col := core.NewCollector("vm", "disk")
	col.Enable()
	state, owned := &core.Snapshot{VM: "vm", Disk: "disk"}, []*core.Snapshot{{VM: "vm", Disk: "disk"}}
	core.MakeWritable(owned)
	var prev *core.Snapshot
	for round := range 8 {
		feed(col, 43+round, 30*(round%3))
		cur := col.Snapshot()
		d := cur.Sub(prev)
		state = state.ApplyDelta(d)
		payload := snapsOf(t, []*core.Snapshot{d})
		kept := slices.Clone(payload)
		if _, err := decodePayload(payload, 1, owned, true); err != nil {
			t.Fatal(err)
		}
		if owned[0].VM != state.VM || owned[0].Disk != state.Disk || !owned[0].StateEquals(state) || !owned[0].StateEquals(cur) {
			t.Fatalf("round %d: decoding in place differs from ApplyDelta", round)
		}
		if !bytes.Equal(payload, kept) {
			t.Fatalf("round %d: decoding in place wrote its payload", round)
		}
		prev = cur
	}
}

// corruptFrame encodes b and spoils its payload while keeping the frame
// whole: a trailing byte the snapshots do not account for, which the decoder
// finds only after adding every snapshot.
func corruptFrame(t *testing.T, b *Batch) []byte {
	t.Helper()
	frame, err := EncodeBatchBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	_, payload := payloadOf(frame)
	return reframe(t, frame, append(append([]byte(nil), payload...), 0), len(b.Snapshots))
}

// TestMalformedDeltaIsABadFrame follows a delta whose payload is corrupt but
// whole through every reader. Pushed, it is a 400 counted in rejected and
// leaves the host's chain as it was — whether apply would have used it,
// refused it or skipped it as a duplicate. In a segment it refuses boot,
// naming the segment, and History skips it.
func TestMalformedDeltaIsABadFrame(t *testing.T) {
	t0 := time.Now().Add(-time.Minute)
	reg := makeRegistry(5, 2, 2, 100)
	host := "esx-m"
	s1 := reg.Snapshots()
	full := &Batch{Host: host, Seq: 1, SentUnixNano: t0.UnixNano(), Snapshots: s1}
	feed(reg.List()[0], 51, 90)
	s2 := reg.Snapshots()
	d2 := deltaBatch(t, host, 2, 1, s1, s2)
	d2.SentUnixNano = t0.Add(time.Second).UnixNano()
	feed(reg.List()[3], 52, 90)
	d3 := deltaBatch(t, host, 3, 2, s2, reg.Snapshots())
	d3.SentUnixNano = t0.Add(2 * time.Second).UnixNano()

	dir := t.TempDir()
	cfg := AggregatorConfig{StaleAfter: time.Hour, Shards: 1, DataDir: dir, SyncInterval: -1}
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()
	push := func(frame []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, b := range []*Batch{full, d2} {
		frame, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		if code := push(frame); code != http.StatusOK {
			t.Fatalf("seq %d: status %d", b.Seq, code)
		}
	}
	chain := func() []*core.Snapshot {
		sh := g.shardOf(host)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.hosts[host].snaps
	}
	held := chain()
	gap := *d3
	gap.Seq, gap.BaseSeq = 5, 4
	stranger := *d3
	stranger.Host = "esx-nobody"
	for name, b := range map[string]*Batch{"applicable": d3, "duplicate": d2, "seq gap": &gap, "unknown host": &stranger} {
		before := g.Stats()
		if code := push(corruptFrame(t, b)); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		after := g.Stats()
		if after.Rejected != before.Rejected+1 || after.Resyncs != before.Resyncs {
			t.Errorf("%s: rejected %d -> %d, resyncs %d -> %d; want one rejection and no resync",
				name, before.Rejected, after.Rejected, before.Resyncs, after.Resyncs)
		}
		now := chain()
		for i := range held {
			if now[i] != held[i] || !now[i].StateEquals(held[i]) {
				t.Errorf("%s: disk %d of the chain changed", name, i)
			}
		}
	}
	if len(g.Hosts()) != 1 {
		t.Errorf("%d hosts, want the one that sent whole frames", len(g.Hosts()))
	}

	// The same frame in the log, between d2 and the real d3.
	seg := g.log.shards[0].active.path
	file, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(corruptFrame(t, d3)); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(d3, "push"); err != nil {
		t.Fatal(err)
	}
	control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
	ingestAll(t, control, []*Batch{full, d2, d3})
	sameMerges(t, "live after the corrupt delta", g, control)

	res, err := g.History(t0.Add(time.Second/2), t0.Add(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 4 || res.Hosts != 1 || res.Dropped != 1 {
		t.Fatalf("history scanned %d frames over %d hosts and dropped %d, want 4 over 1 and the corrupt one", res.Frames, res.Hosts, res.Dropped)
	}
	want := core.Aggregate("cluster", "*", subSnaps(reg.Snapshots(), s1)...)
	if !sameSnapshot(res.Cluster, want) {
		t.Error("history over the corrupt delta is not the window d2 + d3")
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenAggregator(cfg)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), seg) {
		t.Fatalf("boot over the corrupt delta: %v, want a bad frame naming %s", err, seg)
	}
}

// TestDiskNamedTwiceIsRefused follows a full frame that names one disk
// twice through every reader: merged as sent, it would count that disk's
// commands twice. Pushed, it is a 400 and the cluster view does not move.
// In a segment, History drops it and it refuses boot, naming the segment,
// the frame's byte offset and its host.
func TestDiskNamedTwiceIsRefused(t *testing.T) {
	t0 := time.Now().Add(-time.Minute)
	reg := makeRegistry(6, 1, 2, 100)
	s := reg.Snapshots()
	full := &Batch{Host: "esx-d", Seq: 1, SentUnixNano: t0.UnixNano(), Snapshots: s}
	doubled, err := EncodeBatchBytes(&Batch{Host: "esx-d", Seq: 2, SentUnixNano: t0.Add(time.Second).UnixNano(), Snapshots: []*core.Snapshot{s[0], s[0], s[1]}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := AggregatorConfig{StaleAfter: time.Hour, Shards: 1, DataDir: t.TempDir(), SyncInterval: -1}
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(full, "push"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(doubled))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("doubled full frame: status %d, want 400", resp.StatusCode)
	}
	if got := g.ClusterSnapshot(true); got.Commands != hostSnapshot(reg).Commands || !sameSnapshot(got, core.Aggregate("cluster", "*", s...)) {
		t.Errorf("cluster holds %d commands after the doubled frame, want the host's %d", got.Commands, hostSnapshot(reg).Commands)
	}

	seg := g.log.shards[0].active.path
	file, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	at, err := file.Seek(0, io.SeekEnd) // where the doubled frame starts
	if err != nil {
		t.Fatal(err)
	}
	if _, err := file.Write(doubled); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := g.History(t0.Add(-time.Second), t0.Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 2 || res.Dropped != 1 {
		t.Errorf("history scanned %d frames and dropped %d, want 2 and the doubled one", res.Frames, res.Dropped)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("%s corrupt at byte %d, host %q", seg, at, "esx-d")
	if _, _, err := OpenAggregator(cfg); !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), where) {
		t.Fatalf("boot over the doubled frame: %v, want a bad frame naming %s", err, where)
	}
}

// withHeaderField appends bytes this binary does not know to a frame's
// header, as a later version's sender might add a field.
func withHeaderField(frame, field []byte) []byte {
	prefix, payload := payloadOf(frame)
	out := append(append([]byte(nil), prefix...), field...)
	binary.BigEndian.PutUint32(out[8:12], uint32(len(out)-16))
	return reseal(append(append(out, payload...), 0, 0, 0, 0))
}

// TestLogHoldsTheFramesThatArrived pushes frames over HTTP to a durable
// aggregator: the segment holds exactly the bytes of the frames that
// changed state, in order — a frame carrying a header field from a later
// version included, which a re-encode would drop — and replays to the
// state the live aggregator holds.
func TestLogHoldsTheFramesThatArrived(t *testing.T) {
	reg := makeRegistry(6, 2, 2, 100)
	host := "esx-bytes"
	s1 := reg.Snapshots()
	feed(reg.List()[1], 61, 80)
	s2 := reg.Snapshots()
	feed(reg.List()[2], 62, 80)
	s3 := reg.Snapshots()
	encode := func(b *Batch) []byte {
		t.Helper()
		b.SentUnixNano, b.TraceID = time.Now().UnixNano(), fmt.Sprintf("%s-%d", host, b.Seq)
		frame, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	full := encode(&Batch{Host: host, Seq: 1, Snapshots: s1})
	d2 := encode(deltaBatch(t, host, 2, 1, s1, s2))
	d3 := withHeaderField(encode(deltaBatch(t, host, 3, 2, s2, s3)), appendStr(nil, "from a later version"))
	heartbeat := encode(&Batch{Host: host, Seq: 3, BaseSeq: 2, Delta: true})
	stale := encode(&Batch{Host: host, Seq: 1, Snapshots: s1})

	dir := t.TempDir()
	cfg := AggregatorConfig{StaleAfter: time.Hour, Shards: 1, DataDir: dir, SyncInterval: -1}
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()
	for i, frame := range [][]byte{full, d2, d2, d3, heartbeat, stale} {
		resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: status %d", i, resp.StatusCode)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join([][]byte{full, d2, d3}, nil); !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes that are not the %d bytes of the applied frames", len(got), len(want))
	}

	g2, st, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if st.Frames != 3 || st.Skipped != 0 {
		t.Errorf("replayed %d frames, skipped %d; want 3 and 0", st.Frames, st.Skipped)
	}
	sameMerges(t, "replayed", g2, g)
	if hs := g2.Hosts(); len(hs) != 1 || hs[0].Seq != 3 {
		t.Errorf("replayed hosts %+v, want %s at seq 3", hs, host)
	}
}
