package fleet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// hostileInt draws from the values a varint codec gets wrong first: zero,
// small counts of either sign, and the int64 extremes.
func hostileInt(rng *rand.Rand) int64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -1 - rng.Int63n(1000)
	case 4:
		return rng.Int63() - rng.Int63()
	default:
		return rng.Int63n(100000)
	}
}

// hostileSnapshot builds a snapshot that obeys none of a collector's
// identities: bins of either sign, totals unrelated to the bins, class-all
// unrelated to reads + writes (a torn capture), arbitrary extrema. density
// is the share of bins that are non-zero.
func hostileSnapshot(rng *rand.Rand, vm, disk string, density float64) *core.Snapshot {
	one := make([]*core.Snapshot, 1)
	core.MakeWritable(one)
	s := one[0]
	s.VM, s.Disk = vm, disk
	s.Commands, s.NumReads, s.NumWrites = hostileInt(rng), hostileInt(rng), hostileInt(rng)
	s.ReadBytes, s.WriteBytes, s.Errors = hostileInt(rng), hostileInt(rng), hostileInt(rng)
	cells := s.Cells()
	for _, hc := range layout.hists {
		h := hc.Of(cells)
		bins := len(h) - 4
		for i := range h {
			if i >= bins || rng.Float64() < density { // sum, total, min, max: always
				h[i] = hostileInt(rng)
			}
		}
	}
	return s
}

// diskOrder is the (VM, disk) order a frame lists its disks in.
func diskOrder(a, b *core.Snapshot) int {
	return cmp.Or(strings.Compare(a.VM, b.VM), strings.Compare(a.Disk, b.Disk))
}

// roundTrip encodes and decodes b and requires the result to equal b in
// every header field, counter and cell.
func roundTrip(t *testing.T, label string, in *Batch) {
	t.Helper()
	data, err := EncodeBatchBytes(in)
	if err != nil {
		t.Fatalf("%s: encode: %v", label, err)
	}
	if data[4] != Version || data[5]&^flagDelta != flagBinary|flagChecked|flagCompact|flagKept {
		t.Fatalf("%s: version %d flags %#x, want version %d and the binary, checked, compact and kept flags alone (plus delta)", label, data[4], data[5], Version)
	}
	out, err := DecodeBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if !reflect.DeepEqual(in, out) {
		for i := range in.Snapshots {
			if i < len(out.Snapshots) && !reflect.DeepEqual(in.Snapshots[i], out.Snapshots[i]) {
				t.Fatalf("%s: snapshot %d differs after the round trip:\n in %+v\nout %+v", label, i, in.Snapshots[i], out.Snapshots[i])
			}
		}
		t.Fatalf("%s: batch differs after the round trip:\n in %+v\nout %+v", label, in, out)
	}
}

// deltaRoundTrip is roundTrip for a delta whose snapshots keep extrema
// equal to base's: decoded without base it re-encodes to the same bytes, and
// applied onto base it gives what in gives, every cell alike.
func deltaRoundTrip(t *testing.T, label string, in *Batch, base []*core.Snapshot) {
	t.Helper()
	data := encodeBatch(t)(in)
	out, err := DecodeBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
	if again := encodeBatch(t)(out); !bytes.Equal(again, data) {
		t.Fatalf("%s: re-encodes to %d bytes, not its %d", label, len(again), len(data))
	}
	want, werr := applyDeltaSnaps(base, in.Snapshots)
	got, gerr := applyDeltaSnaps(base, out.Snapshots)
	if werr != nil || gerr != nil || len(got) != len(want) {
		t.Fatalf("%s: applying onto the base: %v, %v", label, werr, gerr)
	}
	for i := range want {
		if !got[i].StateEquals(want[i]) {
			t.Fatalf("%s: disk %d (%s/%s) lands differently on the base", label, i, want[i].VM, want[i].Disk)
		}
	}
}

// snapFlags returns the flags the encoder writes for s alone (names shorter
// than 128 bytes).
func snapFlags(t *testing.T, s *core.Snapshot) byte {
	t.Helper()
	p, err := appendPayload(nil, []*core.Snapshot{s}, false)
	if err != nil {
		t.Fatal(err)
	}
	return p[8+2+len(s.VM)+2+len(s.Disk)]
}

// TestPayloadRoundTripProperty is the codec's law: decode(encode(b)) == b,
// bit for bit, for full and delta batches, whatever the numbers are.
func TestPayloadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260929))
	for i := 0; i < 300; i++ {
		in := &Batch{
			Host: "esx-prop", Seq: uint64(rng.Int63()), SentUnixNano: hostileInt(rng),
			TraceID: "esx-prop-trace", CaptureUnixNano: rng.Int63(), Boot: rng.Uint64(),
			Level: rng.Intn(4), Leaves: rng.Intn(1000),
		}
		if i%2 == 1 {
			in.Delta, in.BaseSeq = true, uint64(rng.Int63())
		}
		names := []string{"", "vm", "vm-with-ünïcode/and\x00nul", string(make([]byte, 300))}
		for n := rng.Intn(5); n > 0; n-- { // zero snapshots included
			density := []float64{0, 0.05, 0.5, 1}[rng.Intn(4)]
			in.Snapshots = append(in.Snapshots,
				hostileSnapshot(rng, names[rng.Intn(len(names))], names[rng.Intn(len(names))], density))
		}
		// A frame lists each disk once, in (VM, disk) order.
		slices.SortFunc(in.Snapshots, diskOrder)
		in.Snapshots = slices.CompactFunc(in.Snapshots, func(a, b *core.Snapshot) bool { return diskOrder(a, b) == 0 })
		roundTrip(t, "hostile", in)
	}

	// What collectors really produce: cumulative state, and the interval
	// deltas an agent renders from it (negative-free, all == reads+writes,
	// most disks omitted).
	reg := makeRegistry(3, 3, 2, 400)
	base := reg.Snapshots()
	roundTrip(t, "collector full", &Batch{Host: "esx-real", Seq: 1, Snapshots: base})
	feed(reg.List()[2], 5, 90)
	deltaRoundTrip(t, "collector delta", deltaBatch(t, "esx-real", 2, 1, base, reg.Snapshots()), base)
	// A delta the other way round has negative bins everywhere.
	deltaRoundTrip(t, "negative delta", deltaBatch(t, "esx-real", 3, 2, reg.Snapshots(), base), reg.Snapshots())
	roundTrip(t, "heartbeat", &Batch{Host: "region", Seq: 2, BaseSeq: 1, Delta: true, Boot: 1, Level: 1, Leaves: 9})

	// The derived form's edges: a capture is derived; the same capture off
	// in any one place the rule covers is not, is written whole, and comes
	// back bit for bit.
	capture := makeRegistry(7, 1, 1, 300).Snapshots()[0]
	hist := func(cells []int64, m core.Metric, cl core.Class) []int64 {
		for k := range layout.hists {
			if h := &layout.hists[k]; h.Metric == m && h.Class == cl {
				return h.Of(cells)
			}
		}
		panic("no such histogram")
	}
	type tailCells struct{ sum, total, min, max *int64 }
	tail := func(h []int64) tailCells {
		n := len(h) - 4
		return tailCells{&h[n], &h[n+1], &h[n+2], &h[n+3]}
	}
	perturbed := map[string]func(s *core.Snapshot, cells []int64){
		"class-all bin": func(_ *core.Snapshot, c []int64) { hist(c, core.MetricIOLength, core.All)[3]++ },
		"class-all sum": func(_ *core.Snapshot, c []int64) { *tail(hist(c, core.MetricLatency, core.All)).sum++ },
		"class-all min": func(_ *core.Snapshot, c []int64) { *tail(hist(c, core.MetricSeekDistance, core.All)).min-- },
		"class-all max": func(_ *core.Snapshot, c []int64) { *tail(hist(c, core.MetricInterarrival, core.All)).max++ },
		"Commands":      func(s *core.Snapshot, _ []int64) { s.Commands++ },
		"NumReads":      func(s *core.Snapshot, _ []int64) { s.NumReads-- },
		"NumWrites":     func(s *core.Snapshot, _ []int64) { s.NumWrites++ },
		"ReadBytes":     func(s *core.Snapshot, _ []int64) { s.ReadBytes++ },
		"WriteBytes":    func(s *core.Snapshot, _ []int64) { s.WriteBytes-- },
		"total ≠ bins": func(_ *core.Snapshot, c []int64) { // all == reads + writes still holds
			*tail(hist(c, core.MetricLatency, core.Reads)).total++
			*tail(hist(c, core.MetricLatency, core.All)).total++
		},
		"windowed total ≠ bins": func(_ *core.Snapshot, c []int64) {
			*tail(hist(c, core.MetricSeekWindowed, core.All)).total--
		},
		// A delta with no new reads whose later capture read only zeros: the
		// reads class looks empty, so the rule reads all's extrema off the
		// writes alone, and the capture's were wider.
		"non-empty class at (0, 0)": func(_ *core.Snapshot, c []int64) {
			r, w, all := hist(c, core.MetricOutstanding, core.Reads), hist(c, core.MetricOutstanding, core.Writes), hist(c, core.MetricOutstanding, core.All)
			clear(r)
			copy(all, w)
			n := len(w) - 4
			w[n+2], w[n+3] = 5, 10
			all[n+2], all[n+3] = 0, 10
		},
	}
	for name, perturb := range perturbed {
		one := []*core.Snapshot{capture}
		core.MakeWritable(one)
		if !one[0].Derived() || snapFlags(t, one[0]) != snapDerived {
			t.Fatalf("%s: the capture itself is not derived", name)
		}
		perturb(one[0], one[0].Cells())
		if one[0].Derived() || snapFlags(t, one[0]) != 0 {
			t.Errorf("%s: still derived", name)
		}
		roundTrip(t, name, &Batch{Host: "esx-edge", Seq: 1, Snapshots: one})
	}
}

// TestCompactFormIsTheCommonCase: what the fleet really sends takes the
// derived form — collector captures, their Sub deltas, Aggregate merges and
// a ReExporter's rollups, full and delta — so the saving cannot silently
// vanish behind a rule that no longer matches the collector.
func TestCompactFormIsTheCommonCase(t *testing.T) {
	reg := makeRegistry(11, 3, 2, 300)
	base := reg.Snapshots()
	for i, col := range reg.List() {
		if i%2 == 0 {
			feed(col, 50+i, 80)
		}
	}
	// Writes only: the delta's reads classes have no new samples but keep
	// the capture's extrema.
	feedShape(reg.List()[1], 61, 50, 8, false, true)
	cur := reg.Snapshots()
	deltas, _ := new(chain).subAgainst(cur, base)
	cases := map[string][]*core.Snapshot{
		"captures":         cur,
		"Sub deltas":       deltas,
		"Aggregate merges": {core.Aggregate("*", "*", cur...), core.Aggregate("vm", "*", cur[:2]...)},
	}

	global := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	var rollups []*Batch
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if b, err := DecodeBatch(bytes.NewReader(body)); err == nil {
			rollups = append(rollups, b)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		global.ServeHTTP(w, r)
	}))
	defer srv.Close()
	region := newTreeRegion(t, "region-c", srv.URL+"/fleet/push", 2)
	regs := make([]*core.Registry, 3)
	for i := range regs {
		regs[i] = makeRegistry(20+i, 2, 2, 120)
		pushFull(t, region.agg, fmt.Sprintf("esx-%02d", i), 1, regs[i])
	}
	if err := region.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		for i, reg := range regs[:2] {
			before := reg.Snapshots()
			feed(reg.List()[round], 70+i, 50)
			if err := region.agg.Ingest(deltaBatch(t, fmt.Sprintf("esx-%02d", i), uint64(round+2), uint64(round+1), before, reg.Snapshots()), "push"); err != nil {
				t.Fatal(err)
			}
		}
		if err := region.rex.ReExportNow(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rollups) != 3 || rollups[0].Delta || !rollups[2].Delta || len(rollups[2].Snapshots) == 0 {
		t.Fatalf("upstream saw %d rollups; want a full and two deltas carrying disks", len(rollups))
	}
	for i, b := range rollups {
		cases[fmt.Sprintf("ReExporter rollup %d", i)] = b.Snapshots
	}

	for name, snaps := range cases {
		for _, s := range snaps {
			if !s.Derived() || snapFlags(t, s) != snapDerived {
				t.Errorf("%s: %s/%s is not written in the derived form", name, s.VM, s.Disk)
			}
		}
	}
}

// TestPayloadFrontCodingHostile: a front-coded name may share no more than
// the previous name holds, whichever name it is; and the names a payload
// decodes to count against maxDecodedLen, so a few bytes cannot stand for
// a long name again and again past it.
func TestPayloadFrontCodingHostile(t *testing.T) {
	a, b := core.Snapshot{VM: "vm-a", Disk: "scsi0:0"}, core.Snapshot{VM: "vm-a", Disk: "scsi0:1"}
	payload, err := appendPayload(nil, []*core.Snapshot{&a, &b}, false)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := appendPayload(nil, []*core.Snapshot{&a}, false)
	second := len(first)
	if payload[second] != 4 || payload[second+2] != 6 {
		t.Fatalf("second snapshot's names share % x, want 4 and 6", payload[second:second+3])
	}
	for name, at := range map[string]int{"first VM": 8, "first disk": 8 + 2 + len(a.VM), "second VM": second, "second disk": second + 2} {
		bad := append([]byte(nil), payload...)
		bad[at] += 8 // past the previous name's length
		for _, base := range [][]*core.Snapshot{nil, {&a, &b}} {
			_, err := decodePayload(bad[8:], 2, base != nil, base, false)
			if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), "shares more") {
				t.Errorf("%s sharing past the previous name (base %v): %v, want a bad frame", name, base != nil, err)
			}
		}
	}

	// A 64 KiB name, then snapshots whose names share it all and add a
	// byte, under a count whose snapshots leave room for 4 MiB of names:
	// refused once the names pass that, with nothing allocated per name on
	// a delta. The zeros after the hundredth snapshot are never reached.
	count := (maxDecodedLen - 4<<20) / layout.decodedBytes
	longest := strings.Repeat("v", 64<<10+100)
	base := make([]*core.Snapshot, 100)
	for k := range base {
		base[k] = &core.Snapshot{VM: longest[:64<<10+k]}
	}
	hostile, err := appendPayload(nil, base, true)
	if err != nil {
		t.Fatal(err)
	}
	hostile = append(make([]byte, 0, count*layout.minBytes), hostile[8:]...)
	hostile = hostile[:count*layout.minBytes]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodePayload(hostile, count, true, base, false)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "names and staging decode past") {
		t.Errorf("names past the decode limit: %v, want a bad frame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing the names allocated %d bytes", grew)
	}
}

// TestPayloadOpsChargeTheBudget: the ops a payload stages count against
// maxDecodedLen like its snapshots and names. A delta whose every cell is
// 1 stages the most ops, two bytes to a bin, and at most one snapshot's
// per base disk; onto a base of 300 disks, under a count whose snapshots
// leave room for 1 MiB of ops, it is refused once its ops pass that, long
// before the payload's end, with a few MiB allocated.
func TestPayloadOpsChargeTheBudget(t *testing.T) {
	ones := make([]*core.Snapshot, 300)
	core.MakeWritable(ones)
	for k, s := range ones {
		s.VM, s.Disk = "vm", fmt.Sprintf("scsi0:%03d", k) // in (VM, disk) order
		for i := range s.Cells() {
			s.Cells()[i] = 1
		}
	}
	payload, err := appendPayload(nil, ones, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := (len(payload) - 8) / len(ones); n > 2*len(ones[0].Cells())+64 {
		t.Fatalf("a snapshot of ones encodes to %d bytes, want about two a cell", n)
	}
	count := (maxDecodedLen - 1<<20) / layout.decodedBytes
	hostile := append(make([]byte, 0, count*layout.minBytes), payload[8:]...)
	hostile = hostile[:count*layout.minBytes] // zeros the decoder does not reach
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodePayload(hostile, count, true, ones, false)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "names and staging decode past") {
		t.Errorf("ops past the decode limit: %v, want a bad frame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("refusing the ops allocated %d bytes", grew)
	}
}

// payloadOf splits a frame into head+header and payload,
// leaving out the trailer.
func payloadOf(frame []byte) (prefix, payload []byte) {
	at := 16 + int(binary.BigEndian.Uint32(frame[8:12]))
	return frame[:at], frame[at : at+int(binary.BigEndian.Uint32(frame[12:16]))]
}

// reseal recomputes a frame's CRC-32C trailer in place after a
// test edited its bytes, so the edit reaches the check it targets instead of
// failing the checksum first.
func reseal(frame []byte) []byte {
	n := len(frame) - 4
	binary.BigEndian.PutUint32(frame[n:], crc32.Checksum(frame[:n], castagnoli))
	return frame
}

// reframe puts a payload (and a header count) back behind a frame's head,
// fixing the declared lengths and the trailer.
func reframe(t testing.TB, frame, payload []byte, count int) []byte {
	t.Helper()
	f, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := appendHeader(append([]byte(nil), frame[:16]...), f.Batch, count, f.BaseSeq)
	binary.BigEndian.PutUint32(out[8:12], uint32(len(out)-16))
	binary.BigEndian.PutUint32(out[12:16], uint32(len(payload)))
	return reseal(append(append(out, payload...), 0, 0, 0, 0))
}

// TestPayloadRejectsMalformed feeds the decoder payloads that are whole on
// the wire but contradict the encoding. Each must be a bad frame and must
// NOT read as a truncation: replay truncates torn tails, and a payload
// that is wrong rather than short has to refuse the log instead.
func TestPayloadRejectsMalformed(t *testing.T) {
	in := &Batch{Host: "h", Seq: 1, Snapshots: makeRegistry(1, 1, 1, 0).Snapshots()}
	frame, err := EncodeBatchBytes(in)
	if err != nil {
		t.Fatal(err)
	}
	_, payload := payloadOf(frame)
	// An idle collector's snapshot: layout id, then "vma0" and "scsi0:0"
	// sharing nothing, the derived flag, zero errors, and 11 empty
	// histograms of four zero bytes: sum, nnz<<2|kept, min, max.
	names := 8 + 2 + len(in.Snapshots[0].VM) + 2 + len(in.Snapshots[0].Disk)
	firstHist := names + 2
	if len(payload) != firstHist+(len(layout.hists)-5)*4 || payload[names] != snapDerived {
		t.Fatalf("idle snapshot payload is %d bytes with flags %d, want %d and derived", len(payload), payload[names], firstHist+(len(layout.hists)-5)*4)
	}
	mutate := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), payload...)) }
	cases := map[string]struct {
		payload []byte
		count   int
	}{
		"trailing byte":          {mutate(func(p []byte) []byte { return append(p, 0) }), 1},
		"count short of payload": {payload, 0},
		"count past the payload": {payload, 2},
		"negative count":         {payload, -1},
		"no layout id":           {payload[:5], 0},
		"cut inside a histogram": {payload[:len(payload)-3], 1},
		"name overruns":          {mutate(func(p []byte) []byte { p[9] = 0x7f; return p }), 1},
		"name shares past ''":    {mutate(func(p []byte) []byte { p[8] = 1; return p }), 1},
		"unknown snapshot flags": {mutate(func(p []byte) []byte { p[names] = 2; return p }), 1},
		"nnz beyond the bins":    {mutate(func(p []byte) []byte { p[firstHist+1] = 0x7f; return p }), 1},
		"kept in a full frame":   {mutate(func(p []byte) []byte { p[firstHist+1] = 1; return p }), 1},
		"unterminated varint":    {mutate(func(p []byte) []byte { p[len(p)-1] = 0x80; return p }), 1},
		"bin index out of range": {mutate(func(p []byte) []byte {
			p[len(p)-1] = 1 // the windowed histogram now claims one non-zero bin…
			return append(p, 0x7f, 2)
		}), 1},
	}
	for name, c := range cases {
		_, err := DecodeBatch(bytes.NewReader(reframe(t, frame, c.payload, c.count)))
		if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) {
			t.Errorf("%s: %v, want a bad frame that is not a truncation", name, err)
		}
	}
	// A disk named twice, or two out of (VM, disk) order, in a full frame
	// or a delta: a bad frame, and a delta decoded onto a base that holds
	// both disks is one too, never a resync.
	two := makeRegistry(1, 1, 2, 20).Snapshots()
	for _, delta := range []bool{false, true} {
		for name, snaps := range map[string][]*core.Snapshot{"disk named twice": {two[0], two[0]}, "disks out of order": {two[1], two[0]}} {
			b := &Batch{Host: "h", Seq: 2, Snapshots: snaps}
			if delta {
				b.Delta, b.BaseSeq = true, 1
			}
			frame, err := EncodeBatchBytes(b)
			if err != nil {
				t.Fatal(err)
			}
			_, err = DecodeBatch(bytes.NewReader(frame))
			errs := []error{err}
			if delta {
				_, payload := payloadOf(frame)
				_, err = decodePayload(payload[8:], len(snaps), true, two, false)
				errs = append(errs, err)
			}
			for _, err := range errs {
				if !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrTruncatedFrame) || resyncCauseOf(err) != "" {
					t.Errorf("%s (delta %v): %v, want a bad frame, not a truncation or a resync", name, delta, err)
				}
			}
		}
	}
	// Bit 0, the retired gzip flag, is an unknown flag like any other.
	gz := append([]byte(nil), frame...)
	gz[5] |= 1 << 0
	if _, err := DecodeBatch(bytes.NewReader(reseal(gz))); !errors.Is(err, ErrBadFrame) || errors.Is(err, ErrChecksum) {
		t.Errorf("binary frame with the retired gzip bit: %v, want a bad frame", err)
	}
	// And the unmutated frame does decode — the cases above fail for the
	// reason they name, not because reframe breaks frames.
	if _, err := DecodeBatch(bytes.NewReader(reframe(t, frame, payload, 1))); err != nil {
		t.Fatalf("reframed valid payload: %v", err)
	}
}

// TestPayloadHostileCountAllocation sits beside
// TestWireHostileLengthAllocation: the header's count is as untrusted as
// the length prefix. A count the payload cannot hold is refused before a
// single snapshot is allocated, so a 100-byte frame cannot ask for
// gigabytes of slabs.
func TestPayloadHostileCountAllocation(t *testing.T) {
	frame, err := EncodeBatchBytes(testBatch(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, payload := payloadOf(frame)
	for _, count := range []int{len(payload), 1 << 30, math.MaxInt32} {
		hostile := reframe(t, frame, payload, count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBatch(bytes.NewReader(hostile))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("count %d over a %d-byte payload: %v, want ErrBadFrame", count, len(payload), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("count %d: refusing the frame allocated %d bytes", count, grew)
		}
	}
	// minBytes is the smallest snapshot, an empty derived delta whose
	// extrema are all kept, with empty names: k of them fill a frame that
	// count k decodes and k+1 may not. A frame names each disk once, so
	// after the first each name adds a byte to the previous one's (shared,
	// then one byte of suffix).
	const allKept = 1<<32 - 1
	smallFrame, err := EncodeBatchBytes(&Batch{Host: "h", Seq: 2, BaseSeq: 1, Delta: true,
		Snapshots: []*core.Snapshot{{Kept: allKept}, {Disk: "d", Kept: allKept}, {Disk: "dd", Kept: allKept}}})
	if err != nil {
		t.Fatal(err)
	}
	_, small := payloadOf(smallFrame)
	if len(small) != 8+3*layout.minBytes+2 {
		t.Fatalf("three empty snapshots encode to %d bytes, want 8 + 3 × %d + 2", len(small), layout.minBytes)
	}
	for count, ok := range map[int]bool{3: true, 4: false} {
		b, err := DecodeBatch(bytes.NewReader(reframe(t, smallFrame, small, count)))
		if (err == nil) != ok || !ok && !strings.Contains(err.Error(), "cannot fit") || ok && !bytes.Equal(encodeBatch(t)(b), smallFrame) {
			t.Errorf("count %d over three empty snapshots: %v", count, err)
		}
	}
	// The size bound is not the only one: a payload long enough to back
	// its count (sparse snapshots are ~50x smaller than decoded ones) still
	// may not decode past maxDecodedLen.
	count := maxDecodedLen/layout.decodedBytes + 1
	long := make([]byte, 8+count*layout.minBytes)
	copy(long, payload[:8])
	if _, err := DecodeBatch(bytes.NewReader(reframe(t, frame, long, count))); !errors.Is(err, ErrBadFrame) {
		t.Errorf("count %d (decoding past %d bytes): %v, want ErrBadFrame", count, maxDecodedLen, err)
	}
}

// foreignFrame renders b and rewrites its layout id to one no binary has.
func foreignFrame(t *testing.T, b *Batch) []byte {
	t.Helper()
	frame, err := EncodeBatchBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	_, payload := payloadOf(frame)
	binary.BigEndian.PutUint64(payload, layout.id^0xdecafbad)
	return reseal(frame)
}

// TestUnknownLayoutIsTypedNotCorrupt follows a frame from another binary
// generation (same framing, different bin layout) through every reader:
// decode names it with a typed error that carries the header and is not a
// bad frame; a pushed delta gets a layout-mismatch resync, a pushed full a
// plain 400; boot replay and history skip it and keep going.
func TestUnknownLayoutIsTypedNotCorrupt(t *testing.T) {
	reg := makeRegistry(4, 1, 2, 80)
	base := reg.Snapshots()
	feed(reg.List()[0], 3, 30)
	full := &Batch{Host: "esx-skew", Seq: 1, SentUnixNano: 10, Snapshots: base}
	delta := deltaBatch(t, "esx-skew", 2, 1, base, reg.Snapshots())
	delta.SentUnixNano, delta.TraceID = 20, "esx-skew-1-2"

	_, err := DecodeBatch(bytes.NewReader(foreignFrame(t, delta)))
	var unknown *UnknownLayoutError
	if !errors.As(err, &unknown) || errors.Is(err, ErrBadFrame) {
		t.Fatalf("foreign layout: %v, want an UnknownLayoutError that is not ErrBadFrame", err)
	}
	if h := unknown.Header; h == nil || h.Host != "esx-skew" || h.Seq != 2 || !h.Delta || h.BaseSeq != 1 ||
		h.TraceID != delta.TraceID || h.Snapshots != nil || unknown.LayoutID != layout.id^0xdecafbad {
		t.Errorf("typed error carries %+v / %#x", unknown.Header, unknown.LayoutID)
	}

	dir := t.TempDir()
	g, _, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()
	post := func(frame []byte) (int, string) {
		resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body["resync_cause"]
	}
	goodFull, _ := EncodeBatchBytes(full)
	if code, _ := post(goodFull); code != http.StatusOK {
		t.Fatalf("good full push: %d", code)
	}
	if code, cause := post(foreignFrame(t, delta)); code != http.StatusConflict || cause != string(ResyncLayoutMismatch) {
		t.Errorf("foreign delta push: %d cause %q, want 409 layout-mismatch", code, cause)
	}
	if code, _ := post(foreignFrame(t, full)); code != http.StatusBadRequest {
		t.Errorf("foreign full push: %d, want 400", code)
	}
	st := g.Stats()
	if st.ResyncLayoutMismatch != 1 || st.Rejected != 1 || st.Batches != 1 {
		t.Errorf("stats after the three pushes: layout-mismatch %d rejected %d batches %d, want 1 1 1",
			st.ResyncLayoutMismatch, st.Rejected, st.Batches)
	}
	goodDelta, _ := EncodeBatchBytes(delta)
	if code, _ := post(goodDelta); code != http.StatusOK {
		t.Fatalf("good delta push: %d", code)
	}
	want := g.ClusterSnapshot(true)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Wedge a foreign frame between the two logged ones, as a log written
	// partly by another generation would have it.
	seg := segFiles(t, dir)
	if len(seg) != 1 {
		t.Fatalf("segments: %v", seg)
	}
	logged, err := os.ReadFile(seg[0])
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := frameOffsets(t, seg[0])[0]
	mixed := append(append(append([]byte(nil), logged[:firstEnd]...), foreignFrame(t, full)...), logged[firstEnd:]...)
	if err := os.WriteFile(seg[0], mixed, 0o644); err != nil {
		t.Fatal(err)
	}
	g2, rst, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatalf("boot over a foreign-layout frame: %v", err)
	}
	defer g2.Close()
	if rst.Frames != 3 || rst.Skipped != 1 || rst.TornTails != 0 {
		t.Errorf("replay: %+v, want 3 frames, 1 skipped", rst)
	}
	if !sameSnapshot(g2.ClusterSnapshot(true), want) {
		t.Error("state after skipping the foreign frame differs")
	}
	win, err := g2.History(time.Unix(0, 0), time.Unix(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if win.Frames != 2 || !sameSnapshot(win.Cluster, want) {
		t.Errorf("history over the foreign frame: %d frames", win.Frames)
	}
	if info, err := os.Stat(seg[0]); err != nil || info.Size() != int64(len(mixed)) {
		t.Errorf("replay rewrote the segment: %v", err)
	}
}
