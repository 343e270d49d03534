package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
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
// starts from zeros and each histogram is read whole into its cells, a kept
// extremum (a delta's only) copied from the base disk of the same name, or
// 0 if base has none, and marked in Kept; then each class-all histogram is
// made dense from its reads and writes, and a derived snapshot's counters
// from I/O length. Whole names are compared to keep the disks in (VM, disk)
// order, each named once.
func decodeDense(payload []byte, count int, delta bool, base []*core.Snapshot) (out []*core.Snapshot, err error) {
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
	bases := map[diskKey][]int64{}
	for _, b := range base {
		bases[diskKey{b.VM, b.Disk}] = b.Cells()
	}
	var vm, disk string
	for j, s := range out {
		prevVM, prevDisk := vm, disk
		vm, disk = name(vm), name(disk)
		if j > 0 && (vm < prevVM || vm == prevVM && disk <= prevDisk) {
			panic(errDense)
		}
		s.VM, s.Disk = vm, disk
		from := bases[diskKey{vm, disk}]
		if from == nil {
			from = make([]int64, len(layout.zeros))
		}
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
			h[n] = zz()
			field := next()
			nnz, kept := field>>2, field&3
			if nnz > uint64(n) || kept != 0 && !delta {
				panic(errDense)
			}
			for e := range 2 {
				if kept&(1<<e) == 0 {
					h[n+2+e] = zz()
				} else {
					h[n+2+e] = layout.hists[k].Of(from)[n+2+e]
					s.Kept |= 1 << (2*k + e)
				}
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
		if !derived && s.Kept != 0 {
			s.Kept |= core.KeptWhole
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
	p, err := appendPayload(nil, snaps, true)
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
	// A delta with every extremum kept and one with none; and a reads
	// class that goes from empty to samples that are all 0, its extrema
	// kept at (0, 0) while class-all's move.
	allKept, noneKept := *every[1], *every[1]
	allKept.Kept, noneKept.Kept = 1<<32-1, 0
	f.Add(snapsOf(f, []*core.Snapshot{&allKept}), 1)
	f.Add(snapsOf(f, []*core.Snapshot{&noneKept}), 1)
	earlier, later := zeroReadsLater(writer.Snapshot())
	f.Add(snapsOf(f, []*core.Snapshot{later.Sub(earlier)}), 1)
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
			got, err = decodePayload(payload, count, true, base, false)
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
		_, ierr := decodePayload(payload, count, true, own, true)

		deltas, derr := decodeDense(payload, count, true, base)
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

		// Onto nothing, as a delta read without its base (zeros in its kept
		// cells, the marks in Kept) and as a full frame (no mark allowed).
		for _, delta := range []bool{true, false} {
			alone, err := decodePayload(payload, count, delta, nil, false)
			ref, rerr := decodeDense(payload, count, delta, nil)
			if (err == nil) != (rerr == nil) || (err != nil && !errors.Is(err, ErrBadFrame)) {
				t.Fatalf("decode onto nothing (delta %v): %v, reference: %v", delta, err, rerr)
			}
			for i := range alone {
				if alone[i].VM != ref[i].VM || alone[i].Disk != ref[i].Disk || !alone[i].StateEquals(ref[i]) || alone[i].Kept != ref[i].Kept {
					t.Fatalf("delta %v: snapshot %d differs from the reference decode", delta, i)
				}
			}
		}
	})
}

// zeroReadsLater returns a writes-only capture and the capture after seven
// reads of I/O length 0: the reads histogram goes from empty to (0, 0)
// extrema it had already, class-all's min from the writes' to 0.
func zeroReadsLater(earlier *core.Snapshot) (_, later *core.Snapshot) {
	two := []*core.Snapshot{earlier}
	core.MakeWritable(two)
	later = two[0]
	all, reads := layout.hists[0].Of(later.Cells()), layout.hists[1].Of(later.Cells())
	n, z := len(all)-4, layout.hists[0].Layout.Bin(0)
	reads[z], reads[n+1], all[z], all[n+1] = 7, 7, all[z]+7, all[n+1]+7
	all[n+2] = min(all[n+2], 0)
	later.Commands, later.NumReads = later.Commands+7, later.NumReads+7
	return earlier, later
}

// idleZeroReads returns two captures from later: the one seven reads of
// I/O length 0 made (zeroReadsLater), and that one after three more writes
// of a length already seen. No extremum moves, yet the delta is whole: its
// reads, with no new samples and extrema (0, 0), count as empty, so a
// derived body would give class-all the writes' min, not 0.
func idleZeroReads(earlier *core.Snapshot) (_, later *core.Snapshot) {
	_, mid := zeroReadsLater(earlier)
	two := []*core.Snapshot{mid}
	core.MakeWritable(two)
	later = two[0]
	all, writes := layout.hists[0].Of(later.Cells()), layout.hists[2].Of(later.Cells())
	n := len(all) - 4
	b, v := layout.hists[0].Layout.Bin(writes[n+2]), writes[n+2]
	writes[b], writes[n], writes[n+1] = writes[b]+3, writes[n]+3*v, writes[n+1]+3
	all[b], all[n], all[n+1] = all[b]+3, all[n]+3*v, all[n+1]+3
	later.Commands, later.NumWrites, later.WriteBytes = later.Commands+3, later.NumWrites+3, later.WriteBytes+3*v
	return mid, later
}

// TestClassAllDerivedAfterTheFill: a reads class that goes from empty to
// samples that are all 0 keeps both its extrema at (0, 0), yet class-all's
// min moves. A derived delta carries no class-all, so the decoder fills the
// kept extrema from the base first and derives class-all's after, never
// from its classes' marks; so does ApplyDelta onto the base for the delta
// DecodeBatch reads without it. A whole delta whose every extremum is kept
// (idleZeroReads) stays whole when that reading is encoded again, though
// its placeholders would pass for a derived body.
func TestClassAllDerivedAfterTheFill(t *testing.T) {
	writer := core.NewCollector("vm", "disk")
	writer.Enable()
	feedShape(writer, 5, 30, 16, false, true)
	for name, pair := range map[string]func(*core.Snapshot) (*core.Snapshot, *core.Snapshot){
		"reads from empty to zeros": zeroReadsLater, "whole, every extremum kept": idleZeroReads,
	} {
		earlier, later := pair(writer.Snapshot())
		d := later.Sub(earlier)
		if earlier.StateEquals(later) || d.Kept&0b1100 != 0b1100 || d.Derived() == (d.Kept&1 != 0) {
			t.Fatalf("%s: derived %v, Kept %#x: want the reads' extrema kept, and class-all's min moved in the derived delta only", name, d.Derived(), d.Kept)
		}
		frame := encodeBatch(t)(&Batch{Host: "h", Seq: 2, BaseSeq: 1, Delta: true, Snapshots: []*core.Snapshot{d}})
		f, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		onto, err := decodePayload(f.payload, f.count, true, []*core.Snapshot{earlier}, false)
		if err != nil || !onto[0].StateEquals(later) || onto[0].Kept != 0 {
			t.Fatalf("%s: decoded onto the earlier capture: %v, state right %v", name, err, err == nil && onto[0].StateEquals(later))
		}
		alone, err := DecodeBatch(bytes.NewReader(frame))
		if err != nil || !earlier.ApplyDelta(alone.Snapshots[0]).StateEquals(later) {
			t.Fatalf("%s: decoded alone, then applied onto the earlier capture: %v", name, err)
		}
		if again := encodeBatch(t)(alone); !bytes.Equal(again, frame) {
			t.Fatalf("%s: decoded alone, it encodes to other bytes", name)
		}
	}
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
		if _, err := decodePayload(payload, 1, true, owned, true); err != nil {
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

// TestDecodedFramesReencodeExactly: a delta read without its base keeps its
// Kept marks, so what DecodeBatch gives re-encodes to the frame it read,
// byte for byte, and ingesting that onto the base gives what the frame
// itself gives, every extremum included. Whatever decodes frames on their
// own and sends them again relies on it. The frames are an agent's and a
// re-exporter's chains: partial deltas, a disk attached mid-chain (a full,
// then deltas again) and a stale host leaving the rollup. The same delta
// under a full frame's flags is refused.
func TestDecodedFramesReencodeExactly(t *testing.T) {
	var mu sync.Mutex
	var frames [][]byte
	upstream := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		frames = append(frames, raw)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(raw))
		upstream.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := makeRegistry(1, 2, 2, 100)
	agent := NewAgent(reg, AgentConfig{Host: "esx-rt", Endpoint: srv.URL + "/fleet/push"})
	region, clk := newTestAggregator(10 * time.Second)
	rex := NewReExporter(region, ReExporterConfig{Region: "region-rt", Upstream: srv.URL + "/fleet/push"})
	regA, regB, seqA := makeRegistry(2, 1, 2, 100), makeRegistry(3, 2, 1, 80), uint64(1)
	pushFull(t, region, "esx-a", 1, regA)
	pushFull(t, region, "esx-b", 1, regB)
	pushA := func() { seqA++; pushFull(t, region, "esx-a", seqA, regA) }
	for _, step := range []func(){
		func() {},
		func() { feed(reg.List()[1], 71, 30); feed(regA.List()[0], 72, 20); pushA() },
		func() { feed(reg.List()[0], 73, 5); feed(reg.List()[3], 74, 40) },
		func() { // a disk attached mid-chain
			c := core.NewCollector(reg.List()[1].VM(), "scsi0:10")
			c.Enable()
			feed(c, 75, 40)
			reg.Register(c)
		},
		func() { feed(reg.List()[2], 76, 10); feed(regA.List()[1], 77, 10); pushA() },
		func() { clk.advance(11 * time.Second); pushA() }, // esx-b goes stale
		func() { feed(reg.List()[2], 78, 10); feed(regA.List()[1], 79, 30); pushA() },
	} {
		step()
		if err := agent.PushNow(); err != nil {
			t.Fatal(err)
		}
		if err := rex.ReExportNow(); err != nil {
			t.Fatal(err)
		}
	}

	alone := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	whole := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	var deltas, kept int
	for i, f := range frames {
		b, err := DecodeBatch(bytes.NewReader(f))
		if err != nil {
			t.Fatal(err)
		}
		if again := encodeBatch(t)(b); !bytes.Equal(again, f) {
			t.Fatalf("frame %d (%s seq %d): re-encodes to other bytes", i, b.Host, b.Seq)
		}
		if b.Delta {
			deltas++
			marks := 0 // the marks on the wire, not KeptWhole
			for _, s := range b.Snapshots {
				marks += bits.OnesCount32(uint32(s.Kept))
			}
			asFull := append([]byte(nil), f...)
			asFull[5] &^= flagDelta
			if _, err := DecodeBatch(bytes.NewReader(reseal(asFull))); marks > 0 && !errors.Is(err, ErrBadFrame) {
				t.Errorf("frame %d keeping %d extrema, under a full frame's flags: %v, want a bad frame", i, marks, err)
			}
			kept += marks
		}
		if err := alone.Ingest(b, "push"); err != nil {
			t.Fatalf("frame %d decoded alone: %v", i, err)
		}
		if _, err := whole.receive(context.Background(), bytes.NewReader(f), "push", false); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got := storedState(alone, b.Host)
		if !sameStates(got, storedState(whole, b.Host)) || slices.ContainsFunc(got, func(s *core.Snapshot) bool { return s.Kept != 0 }) {
			t.Fatalf("frame %d (%s seq %d): ingested once re-encoded, the host's state differs", i, b.Host, b.Seq)
		}
	}
	if deltas < 6 || kept == 0 {
		t.Errorf("%d of %d frames were deltas keeping %d extrema, want 6 or more keeping some", deltas, len(frames), kept)
	}
	if !sameStates(storedState(whole, "esx-rt"), reg.Snapshots()) {
		t.Error("the receiver's state of the agent is not the registry's")
	}
}
