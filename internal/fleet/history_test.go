package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
)

// mergeSnaps is how History merged its per-disk windows before it added
// them up as it scanned: one cluster merge plus per-VM merges sorted by VM
// name. Tests keep it as an oracle.
func mergeSnaps(snaps []*core.Snapshot) (*core.Snapshot, []*core.Snapshot) {
	if len(snaps) == 0 {
		return nil, nil
	}
	return core.Aggregate("cluster", "*", snaps...), mergeByVM(snaps)
}

// timedChain builds one host's chain of three captures sent at t0 < t1 < t2
// (a full, then two deltas) and returns the batches plus the cumulative
// state after each capture.
func timedChain(hostSeed int, t0, t1, t2 time.Time) (batches []*Batch, states [3][]*core.Snapshot) {
	host := "esx-" + string(rune('a'+hostSeed))
	reg := makeRegistry(hostSeed, 2, 2, 100)
	states[0] = reg.Snapshots()
	batches = append(batches, &Batch{Host: host, Seq: 1, SentUnixNano: t0.UnixNano(), Snapshots: states[0]})
	for i, at := range []time.Time{t1, t2} {
		for j, col := range reg.List() {
			feed(col, hostSeed*100+i*10+j, 70)
		}
		states[i+1] = reg.Snapshots()
		batches = append(batches, &Batch{
			Host: host, Seq: uint64(i + 2), SentUnixNano: at.UnixNano(),
			Delta: true, BaseSeq: uint64(i + 1), Snapshots: subSnaps(states[i+1], states[i]),
		})
	}
	return batches, states
}

// TestHistoryWindows pins the window algebra on a single host's chain:
// a window covering the whole chain returns the full state, an interior
// window returns exactly the per-disk interval subtraction between its
// boundary states, and a window after the last frame returns nothing.
func TestHistoryWindows(t *testing.T) {
	dir := t.TempDir()
	g, _, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	batches, states := timedChain(0, t0, t1, t2)
	ingestAll(t, g, batches)

	check := func(label string, from, to time.Time, want []*core.Snapshot) {
		t.Helper()
		res, err := g.History(from, to)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if want == nil {
			if res.Hosts != 0 || res.Cluster != nil {
				t.Errorf("%s: expected an empty window, got %d hosts", label, res.Hosts)
			}
			return
		}
		if res.Hosts != 1 {
			t.Fatalf("%s: %d hosts in window, want 1", label, res.Hosts)
		}
		if !sameSnapshot(res.Cluster, core.Aggregate("cluster", "*", want...)) {
			t.Errorf("%s: windowed cluster merge is not the expected subtraction", label)
		}
	}

	epoch := time.Unix(0, 0)
	check("whole chain", epoch, t2, states[2])
	check("up to first capture", epoch, t0, states[0])
	check("first interval", t0, t1, subSnaps(states[1], states[0]))
	check("second interval", t1, t2, subSnaps(states[2], states[1]))
	check("both intervals", t0, t2, subSnaps(states[2], states[0]))
	check("after the last frame", t2, t2.Add(time.Hour), nil)

	// Boundaries are (from, to]: a window ending exactly on a frame's sent
	// time includes it, one starting there does not.
	check("exact end boundary", t0, t1, subSnaps(states[1], states[0]))
	if _, err := g.History(time.Time{}, time.Time{}); err != nil {
		t.Errorf("degenerate window errored: %v", err)
	}
}

// TestHistorySkipsPayloadsPastTo checks that a frame sent after the window's
// end, whose payload the scan skips unread, leaves the reader on the next
// frame: one segment holds a late host's chain first, then an early host's.
func TestHistorySkipsPayloadsPastTo(t *testing.T) {
	cfg := logAggConfig(t.TempDir())
	cfg.Shards = 1
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	late, _ := timedChain(0, t0.Add(time.Hour), t0.Add(2*time.Hour), t0.Add(3*time.Hour))
	early, states := timedChain(1, t0, t0.Add(time.Minute), t0.Add(2*time.Minute))
	ingestAll(t, g, append(late, early...))

	res, err := g.History(time.Unix(0, 0), t0.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 6 || res.Hosts != 1 {
		t.Fatalf("scanned %d frames, %d hosts in window; want 6 frames, 1 host", res.Frames, res.Hosts)
	}
	if !sameSnapshot(res.Cluster, core.Aggregate("cluster", "*", states[2]...)) {
		t.Error("the early host's window is not its state after the late host's skipped frames")
	}
}

// TestHistoryCountsDroppedFrames flips one bit in the payload of a frame
// inside the window: the scan drops that frame, counts it on the result and
// in LogStats, and reads on, so only its own host's window stops short —
// at the frame before it, since the next delta has no base. A window that
// ends before the rotted frame still checks its trailer, so it drops it too.
func TestHistoryCountsDroppedFrames(t *testing.T) {
	cfg := logAggConfig(t.TempDir())
	cfg.Shards = 1
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	a, aStates := timedChain(0, t0, t1, t2)
	b, bStates := timedChain(1, t0, t1, t2)
	ingestAll(t, g, append(a, b...))

	seg := g.log.shards[0].active.path
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	_, payload := payloadOf(data[frameOffsets(t, seg)[0]:]) // a's delta sent at t1
	payload[len(payload)/2] ^= 0x20
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := g.History(time.Unix(0, 0), t2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Frames != 5 || res.Hosts != 2 {
		t.Fatalf("dropped %d, scanned %d frames over %d hosts; want 1, 5 and 2", res.Dropped, res.Frames, res.Hosts)
	}
	want := core.Aggregate("cluster", "*", append(slices.Clone(aStates[0]), bStates[2]...)...)
	if !sameSnapshot(res.Cluster, want) {
		t.Error("window is not a's state before the rotted frame plus b's whole chain")
	}
	if early, err := g.History(time.Unix(0, 0), t0); err != nil || early.Dropped != 1 {
		t.Errorf("window ending before the rotted frame: %+v, %v; want it dropped", early, err)
	}
	if d := g.LogStats().HistoryDropped; d != 2 {
		t.Errorf("LogStats.HistoryDropped = %d, want 2", d)
	}
}

// TestHistoryChecksHeaderFlipsPastTo flips the bit of a logged delta's
// header that moves its send time past the window's end: History drops the
// frame on its trailer, as boot replay would, instead of skipping it as a
// frame from after the window, and the host's window stops at the frame
// before it.
func TestHistoryChecksHeaderFlipsPastTo(t *testing.T) {
	cfg := logAggConfig(t.TempDir())
	cfg.Shards = 1
	g, _, err := OpenAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	a, aStates := timedChain(0, t0, t1, t2)
	b, bStates := timedChain(1, t0, t1, t2)
	ingestAll(t, g, append(a, b...))

	seg := g.log.shards[0].active.path
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	prefix, _ := payloadOf(data[frameOffsets(t, seg)[0]:]) // a's delta sent at t1
	header := prefix[16:]
	flipped := false
	for bit := 0; bit < 8*len(header) && !flipped; bit++ {
		header[bit/8] ^= 1 << (bit % 8)
		var got Batch
		p := payloadReader{buf: header}
		if p.header(&got, nil); p.err == nil && got.Host == a[1].Host && got.SentUnixNano > t2.UnixNano() {
			flipped = true
			break
		}
		header[bit/8] ^= 1 << (bit % 8)
	}
	if !flipped {
		t.Fatal("no bit of the header moves its send time past the window")
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := g.History(time.Unix(0, 0), t2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 {
		t.Fatalf("dropped %d frames, want the flipped one", res.Dropped)
	}
	want := core.Aggregate("cluster", "*", append(slices.Clone(aStates[0]), bStates[2]...)...)
	if !sameSnapshot(res.Cluster, want) {
		t.Error("window is not a's state before the flipped frame plus b's whole chain")
	}
}

// TestHistorySpansRestart is the acceptance check for the history half of
// the tentpole: frames written before a restart and frames written after
// it answer one continuous window query from the reopened aggregator.
func TestHistorySpansRestart(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	batches, states := timedChain(0, t0, t1, t2)

	g, _, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, g, batches[:2]) // t0 full + t1 delta, then the restart
	g.Close()

	g2, _, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	ingestAll(t, g2, batches[2:]) // t2 delta lands after the restart

	res, err := g2.History(t0, t2)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Aggregate("cluster", "*", subSnaps(states[2], states[0])...)
	if res.Hosts != 1 || !sameSnapshot(res.Cluster, want) {
		t.Error("window spanning the restart is not the continuous subtraction")
	}
}

// TestHistoryFollowsSenderRestart is the restarted-ReExporter case: the
// sender's sequence space starts over under a new boot while the counters
// it reports keep counting. Live ingest follows the restart (a full from a
// new boot replaces state at any sequence); a window across it must too,
// and be the plain subtraction of its boundary states.
func TestHistoryFollowsSenderRestart(t *testing.T) {
	g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const host, bootA, bootB = "region-west", 11, 22
	reg := makeRegistry(0, 2, 2, 100)
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var states [][]*core.Snapshot
	var sent []time.Time
	push := func(boot, seq uint64, delta bool) {
		t.Helper()
		for j, col := range reg.List() {
			feed(col, len(states)*10+j, 35)
		}
		b := &Batch{
			Host: host, Seq: seq, Boot: boot, Snapshots: reg.Snapshots(),
			SentUnixNano: t0.Add(time.Duration(len(states)) * time.Minute).UnixNano(),
		}
		if delta {
			b.Delta, b.BaseSeq = true, seq-1
			b.Snapshots = subSnaps(b.Snapshots, states[len(states)-1])
		}
		states = append(states, reg.Snapshots())
		sent = append(sent, time.Unix(0, b.SentUnixNano))
		if err := g.Ingest(b, "push"); err != nil {
			t.Fatalf("boot %d seq %d: %v", boot, seq, err)
		}
	}
	push(bootA, 1, false)
	for seq := uint64(2); seq <= 5; seq++ {
		push(bootA, seq, true)
	}
	push(bootB, 1, false) // the restart: seq starts over, counters do not
	push(bootB, 2, true)

	last := len(states) - 1
	if !g.ClusterSnapshot(true).StateEquals(core.Aggregate("cluster", "*", states[last]...)) {
		t.Fatal("live ingest did not follow the restart")
	}
	res, err := g.History(sent[4], sent[last]) // from the last boot-A frame
	if err != nil {
		t.Fatal(err)
	}
	want := core.Aggregate("cluster", "*", subSnaps(states[last], states[4])...)
	if res.Hosts != 1 || !sameSnapshot(res.Cluster, want) {
		var got int64
		if res.Cluster != nil {
			got = res.Cluster.Commands
		}
		t.Errorf("window across the restart: hosts=%d commands=%d, want hosts=1 commands=%d",
			res.Hosts, got, want.Commands)
	}
}

// TestHistoryAcrossCounterReset is the restarted-agent case: a new boot
// whose collectors started from zero, so the counters it reports fall. The
// window across the restart is what the host accumulated since — the
// post-restart state, as the live view says — not a subtraction across the
// reset with negative bins in it.
func TestHistoryAcrossCounterReset(t *testing.T) {
	g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	before := makeRegistry(0, 1, 1, 1000)
	after := makeRegistry(0, 1, 1, 10)
	ingestAll(t, g, []*Batch{
		{Host: "esx-r", Seq: 1, Boot: 1, SentUnixNano: t0.UnixNano(), Snapshots: before.Snapshots()},
		{Host: "esx-r", Seq: 1, Boot: 2, SentUnixNano: t0.Add(time.Minute).UnixNano(), Snapshots: after.Snapshots()},
	})
	res, err := g.History(t0, t0.Add(2*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	want := hostSnapshot(after)
	if !g.ClusterSnapshot(true).StateEquals(want) {
		t.Fatal("live ingest did not follow the restart")
	}
	if res.Hosts != 1 || !res.Cluster.StateEquals(want) {
		t.Errorf("window across the reset: hosts=%d commands=%d, want the post-restart state (%d commands)",
			res.Hosts, res.Cluster.Commands, want.Commands)
	}
	cells := res.Cluster.Cells()
	for _, hc := range layout.hists {
		for bin, c := range hc.Of(cells)[:hc.Layout.NumBins()] {
			if c < 0 {
				t.Errorf("%s bin %d of the window is %d", hc.Name, bin, c)
			}
		}
	}
}

// TestHistoryMatchesLiveIngest is the law behind chainPos: History and
// shard.ingest are two consumers of one apply rule, so over a window that
// holds the whole log they end in the same state — after every prefix of
// any frame sequence, however hostile. The sequences are seeded random
// mixes of fulls, deltas, duplicates, sequence gaps, stale fulls and
// sender restarts across three hosts. Every prefix window, too, ends in
// the state live ingest held after that step.
func TestHistoryMatchesLiveIngest(t *testing.T) {
	type sender struct {
		host      string
		reg       *core.Registry
		seq, boot uint64
		last      *Batch           // for redelivery
		base      []*core.Snapshot // state the receiver acknowledged; nil forces a full
	}
	epoch, farFuture := time.Unix(0, 0), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, seed := range []int64{1, 7919} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			senders := make([]*sender, 3)
			for i := range senders {
				senders[i] = &sender{
					host: fmt.Sprintf("esx-%d", i), reg: makeRegistry(i, 1, 2, 40), boot: uint64(rng.Int63()) | 1,
				}
			}
			kinds := map[string]int{}
			var live []*core.Snapshot                // the live merge after each step
			var chains []map[string][]*core.Snapshot // every host's live chain after each step
			for step := 0; step < 120; step++ {
				s := senders[rng.Intn(len(senders))]
				if step%40 == 39 { // a busy disk attached among the host's others: windows across it pair disks by name
					c := core.NewCollector(s.reg.List()[0].VM(), fmt.Sprintf("scsi0:0%d", step))
					c.Enable()
					feed(c, step, 3000)
					s.reg.Register(c)
				}
				for j, col := range s.reg.List() {
					feed(col, step*10+j, rng.Intn(30))
				}
				cur := s.reg.Snapshots()
				kind := [...]string{"delta", "delta", "delta", "delta", "full", "duplicate", "gap", "stale-full", "reboot", "reboot-delta"}[rng.Intn(10)]
				if kind == "reboot" || kind == "reboot-delta" {
					s.boot, s.seq = uint64(rng.Int63())|1, 0
					if kind == "reboot" {
						s.base = nil // else: a restarted sender wrongly trusting its old base
					}
				}
				b := &Batch{Host: s.host, Boot: s.boot, Snapshots: cur, SentUnixNano: int64(step+1) * int64(time.Second)}
				switch {
				case kind == "duplicate" && s.last != nil:
					b = s.last
				case kind == "stale-full":
					b.Seq = s.seq / 2
				default:
					if kind == "gap" {
						s.seq++ // a frame the receiver never saw
					}
					if s.base != nil && kind != "full" {
						b.Delta, b.BaseSeq, b.Snapshots = true, s.seq, subSnaps(cur, s.base)
					}
					s.seq++
					b.Seq = s.seq
				}
				kinds[kind]++
				err := g.Ingest(b, "push")
				switch {
				case errors.Is(err, ErrResyncRequired):
					s.base = nil // what a real sender does: full state next
				case err != nil:
					t.Fatalf("step %d (%s): %v", step, kind, err)
				case b != s.last && kind != "stale-full":
					s.base, s.last = cur, b
				}
				res, err := g.History(epoch, farFuture)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, g.ClusterSnapshot(true))
				chains = append(chains, chainsOf(g))
				if !res.Cluster.StateEquals(live[step]) {
					t.Fatalf("step %d (%s host %s seq %d): History over the whole log and the live merge disagree",
						step, kind, b.Host, b.Seq)
				}
			}
			// Every prefix window ends where live ingest stood after that
			// step: the frames past its end are skipped unread.
			for step, want := range live {
				res, err := g.History(epoch, time.Unix(0, int64(step+1)*int64(time.Second)))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cluster.StateEquals(want) {
					t.Fatalf("History up to step %d and the live merge after it disagree", step)
				}
			}
			// Windows that open mid-chain, with later deltas on the same
			// disks: the baseline is each host's live chain after step a,
			// which History's own chain must not change as it adds the
			// deltas after it in place.
			last := chains[len(chains)-1]
			for a := 0; a < len(chains); a += 7 {
				var windows []*core.Snapshot
				for host, end := range last {
					changed := false
					for s := a + 1; s < len(chains); s++ {
						prev, cur := chains[s-1][host], chains[s][host]
						changed = changed || len(prev) == 0 || &prev[0] != &cur[0]
					}
					if !changed {
						continue
					}
					base := map[diskKey]*core.Snapshot{}
					for _, s := range chains[a][host] {
						base[diskKey{s.VM, s.Disk}] = s
					}
					for _, s := range end {
						windows = append(windows, core.IntervalSince(base[diskKey{s.VM, s.Disk}], s))
					}
				}
				want, _ := mergeSnaps(windows)
				res, err := g.History(time.Unix(0, int64(a+1)*int64(time.Second)), farFuture)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cluster.StateEquals(want) {
					t.Fatalf("History from step %d on and the live chains' windows disagree", a)
				}
			}
			st := g.Stats()
			if st.DeltasApplied == 0 || st.Duplicates == 0 || st.ResyncSeqGap == 0 || st.ResyncBootChanged == 0 {
				t.Errorf("sequence too tame to prove anything: %v, stats %+v", kinds, st)
			}
		})
	}
}

// TestHistoryFoldMatchesIntervalMerge pins History's fold to the
// computation it replaced: core.IntervalSince per disk between the states at
// both ends of the window, merged with mergeSnaps. Four senders, two sharing
// a VM name, push seeded random chains with fulls, sequence gaps, sender
// restarts, counter resets and disks attached and detached; one logged delta
// is then damaged, so every query drops it and its host's chain stops there
// until its next full. The states at both ends come from a memory-only
// aggregator fed every logged frame but that one. Every window's cluster
// and per-VM views must match, but for the extrema of a merged histogram
// whose total is 0, which follow map order.
func TestHistoryFoldMatchesIntervalMerge(t *testing.T) {
	type sender struct {
		host      string
		reg       *core.Registry
		seq, boot uint64
		base      []*core.Snapshot // state the receiver acknowledged; nil forces a full
	}
	const steps = 60
	at := func(step int) time.Time { return time.Unix(0, int64(step+1)*int64(time.Second)) }
	for _, seed := range []int64{1, 7919} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			g, _, err := OpenAggregator(logAggConfig(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			control := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
			senders := make([]*sender, 4)
			for i := range senders {
				s := &sender{host: fmt.Sprintf("esx-%d", i), reg: core.NewRegistry(), boot: uint64(rng.Int63()) | 1}
				for _, vm := range []string{"vm-shared", vmName(i, 0)} {
					for d := range 2 {
						c := core.NewCollector(vm, diskName(d))
						c.Enable()
						feed(c, i*100+d, 40)
						s.reg.Register(c)
					}
				}
				senders[i] = s
			}
			dropAt := steps/2 + rng.Intn(steps/4)
			var dropped *Batch
			kinds := map[string]int{}
			chains := []map[string][]*core.Snapshot{{}} // the control's chains before each step and after the last
			for step := range steps {
				s := senders[rng.Intn(len(senders))]
				kind := [...]string{"delta", "delta", "delta", "delta", "full", "gap", "reboot", "reset", "attach", "detach"}[rng.Intn(10)]
				cols := s.reg.List()
				switch kind {
				case "reboot": // counters keep counting under a new boot at seq 1
					s.boot, s.seq, s.base = uint64(rng.Int63())|1, 0, nil
				case "reset":
					cols[rng.Intn(len(cols))].Reset()
				case "attach": // sorts among the host's disks
					c := core.NewCollector(cols[0].VM(), fmt.Sprintf("scsi0:0%d", step))
					c.Enable()
					s.reg.Register(c)
				case "detach": // gone from the next full frame on
					if len(cols) == 1 {
						break
					}
					reg, gone := core.NewRegistry(), rng.Intn(len(cols))
					for i, c := range cols {
						if i != gone {
							reg.Register(c)
						}
					}
					s.reg, s.base = reg, nil
				}
				for j, col := range s.reg.List() {
					feed(col, step*10+j, rng.Intn(30))
				}
				cur := s.reg.Snapshots()
				b := &Batch{Host: s.host, Boot: s.boot, Snapshots: cur, SentUnixNano: at(step).UnixNano()}
				if kind == "gap" {
					s.seq++ // a frame the receiver never saw
				}
				if s.base != nil && kind != "full" {
					b.Delta, b.BaseSeq, b.Snapshots = true, s.seq, subSnaps(cur, s.base)
				}
				s.seq++
				b.Seq = s.seq
				kinds[kind]++
				switch err := g.Ingest(b, "push"); {
				case errors.Is(err, ErrResyncRequired):
					s.base = nil // what a real sender does: full state next
				case err != nil:
					t.Fatalf("step %d (%s): %v", step, kind, err)
				case step >= dropAt && dropped == nil && b.Delta:
					s.base, dropped = cur, b
				default:
					s.base = cur
					control.Ingest(b, "push") // refused when it builds on the dropped frame
				}
				chains = append(chains, chainsOf(control))
			}
			if dropped == nil || len(kinds) != 7 {
				t.Fatalf("sequence too tame: kinds %v, dropped frame %v", kinds, dropped != nil)
			}
			raw, err := EncodeBatchBytes(dropped)
			if err != nil {
				t.Fatal(err)
			}
			found := 0
			for _, seg := range segFiles(t, dir) {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if i := bytes.Index(data, raw); i >= 0 {
					data[i+len(raw)/2] ^= 0x10 // the trailer no longer matches
					found++
					if err := os.WriteFile(seg, data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if found != 1 {
				t.Fatalf("the dropped frame is in %d segments, want 1", found)
			}

			for a := -1; a < steps; a += 3 {
				for b := a + 1 + rng.Intn(4); b < steps; b += 1 + rng.Intn(8) {
					var windows []*core.Snapshot
					for host, end := range chains[b+1] {
						changed := false
						for s := a + 1; s <= b; s++ {
							prev, cur := chains[s][host], chains[s+1][host]
							changed = changed || len(prev) != len(cur) || len(cur) > 0 && &prev[0] != &cur[0]
						}
						if !changed {
							continue
						}
						base := map[diskKey]*core.Snapshot{}
						for _, s := range chains[a+1][host] {
							base[diskKey{s.VM, s.Disk}] = s
						}
						for _, s := range end {
							windows = append(windows, core.IntervalSince(base[diskKey{s.VM, s.Disk}], s))
						}
					}
					wantCluster, wantVMs := mergeSnaps(windows)
					from := at(a)
					if a < 0 {
						from = time.Unix(0, 0)
					}
					res, err := g.History(from, at(b))
					if err != nil {
						t.Fatal(err)
					}
					if res.Dropped != 1 || !sameFold(res.Cluster, wantCluster) || len(res.VMs) != len(wantVMs) {
						t.Fatalf("window (%d, %d]: %d dropped, cluster and %d VMs differ from the interval merge's %d VMs", a, b, res.Dropped, len(res.VMs), len(wantVMs))
					}
					for i, v := range res.VMs {
						if v.VM != wantVMs[i].VM || !sameFold(v, wantVMs[i]) {
							t.Fatalf("window (%d, %d]: VM %s differs from the interval merge", a, b, v.VM)
						}
					}
				}
			}
		})
	}
}

// sameFold is StateEquals but for the extrema of a histogram whose total is
// 0: a merge of windows that are all empty there takes the extrema of the
// last one it folds, so they follow the order the windows are met in.
func sameFold(a, b *core.Snapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Commands != b.Commands || a.NumReads != b.NumReads || a.NumWrites != b.NumWrites ||
		a.ReadBytes != b.ReadBytes || a.WriteBytes != b.WriteBytes || a.Errors != b.Errors {
		return false
	}
	ca, cb := a.Cells(), b.Cells()
	for _, h := range core.CellTable() {
		ha, hb := h.Of(ca), h.Of(cb)
		n := len(ha)
		if ha[n-3] == 0 {
			n -= 2 // the total, then min and max
		}
		if !slices.Equal(ha[:n], hb[:n]) {
			return false
		}
	}
	return true
}

// TestHistoryBesideLiveIngest runs twenty History queries, through the API
// and the HTTP handler, while four senders push, two of them under the same
// VM names: the windows are added up on the scan goroutines while the log
// grows under them. A frame being appended reads as a torn tail, never as a
// drop; the cluster only grows, as the senders' counters do; and once ingest
// stops, History over the whole log equals the live merge.
func TestHistoryBesideLiveIngest(t *testing.T) {
	g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	epoch, farFuture := time.Unix(0, 0), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	var stop atomic.Bool // the senders push until the queries are done
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := makeRegistry(i%2, 2, 2, 40)
			var base []*core.Snapshot
			for k := 0; k < 500 && !stop.Load(); k++ {
				for j, col := range reg.List() {
					feed(col, k*10+j, 5)
				}
				cur := reg.Snapshots()
				b := &Batch{Host: fmt.Sprintf("esx-%d", i), Seq: uint64(k + 1), SentUnixNano: int64(k+1) * int64(time.Second), Snapshots: cur}
				if base != nil {
					b.Delta, b.BaseSeq, b.Snapshots = true, uint64(k), subSnaps(cur, base)
				}
				if err := g.Ingest(b, "push"); err != nil {
					t.Errorf("host %s seq %d: %v", b.Host, b.Seq, err)
					return
				}
				base = cur
			}
		}()
	}
	var commands int64
	for range 20 {
		res, err := g.History(epoch, farFuture)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped != 0 || res.Cluster != nil && res.Cluster.Commands < commands {
			t.Fatalf("a query beside ingest dropped %d frames and saw %+v commands after %d", res.Dropped, res.Cluster, commands)
		}
		if res.Cluster != nil {
			commands = res.Cluster.Commands
		}
		for _, q := range []string{"view=vms", "vm=" + vmName(1, 0)} {
			rec := httptest.NewRecorder()
			g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/history?"+q, nil))
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				t.Fatalf("GET /fleet/history?%s beside ingest: status %d: %s", q, rec.Code, rec.Body)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	res, err := g.History(epoch, farFuture)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hosts != 4 || !res.Cluster.StateEquals(g.ClusterSnapshot(true)) {
		t.Errorf("after ingest, History over the whole log (%d hosts) and the live merge disagree", res.Hosts)
	}
}

// TestHistoryBaselineFollowsLogOrder sends a chain whose send times go
// backwards once: d3 was sent before d2 but applied after it. The baseline
// is the state after the newest applied frame sent at or before from, in
// log order, so it holds d2 although d2 was sent after from; and the delta
// inside the window after it, which History adds in place, must not change
// it.
func TestHistoryBaselineFollowsLogOrder(t *testing.T) {
	t0 := time.Now().Add(-time.Minute)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	reg := makeRegistry(3, 2, 2, 100)
	var states [][]*core.Snapshot
	var batches []*Batch
	for k, sent := range []int{1, 5, 3, 6} {
		for i, col := range reg.List() {
			feed(col, 300+k*10+i, 50*min(k, 1))
		}
		states = append(states, reg.Snapshots())
		b := &Batch{Host: "esx-o", Seq: uint64(k + 1), SentUnixNano: at(sent).UnixNano(), Snapshots: states[k]}
		if k > 0 {
			b.Delta, b.BaseSeq, b.Snapshots = true, uint64(k), subSnaps(states[k], states[k-1])
		}
		batches = append(batches, b)
	}
	g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ingestAll(t, g, batches)
	res, err := g.History(at(4), at(7))
	if err != nil {
		t.Fatal(err)
	}
	want := core.Aggregate("cluster", "*", subSnaps(states[3], states[2])...)
	if res.Hosts != 1 || !sameSnapshot(res.Cluster, want) {
		t.Errorf("window over %d hosts is not the state after d4 less the state after d3", res.Hosts)
	}
}

// TestHistoryHTTP drives GET /fleet/history end to end: defaults, integer
// and RFC3339 bounds, the vm filter, the vms view, and every documented
// error status.
func TestHistoryHTTP(t *testing.T) {
	dir := t.TempDir()
	g, _, err := OpenAggregator(logAggConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g)
	defer srv.Close()

	// Anchored in the recent past so the endpoint's default to=now window
	// covers the chain; truncated to seconds so RFC3339 bounds round-trip.
	t0 := time.Now().Add(-time.Hour).Truncate(time.Second)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	for h := 0; h < 2; h++ {
		batches, _ := timedChain(h, t0, t1, t2)
		ingestAll(t, g, batches)
	}

	get := func(query string, wantCode int) *HistoryResult {
		t.Helper()
		resp, err := http.Get(srv.URL + "/fleet/history" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", query, resp.StatusCode, wantCode)
		}
		if wantCode != http.StatusOK {
			return nil
		}
		var res HistoryResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return &res
	}

	if res := get("", http.StatusOK); res.Hosts != 2 || res.Cluster == nil || res.VMs != nil {
		t.Errorf("default window: hosts=%d cluster=%v vms=%v", res.Hosts, res.Cluster != nil, res.VMs)
	}
	nano := fmt.Sprintf("?from=%d&to=%d", t0.UnixNano(), t2.UnixNano())
	if res := get(nano, http.StatusOK); res.Hosts != 2 {
		t.Errorf("nanosecond bounds: hosts=%d, want 2", res.Hosts)
	}
	rfc := "?from=" + t0.Format(time.RFC3339) + "&to=" + t2.Format(time.RFC3339)
	if res := get(rfc, http.StatusOK); res.Hosts != 2 {
		t.Errorf("RFC3339 bounds: hosts=%d, want 2", res.Hosts)
	}
	vm := vmName(0, 0)
	if res := get("?vm="+vm, http.StatusOK); len(res.VMs) != 1 || res.VMs[0].VM != vm || res.Cluster != nil {
		t.Errorf("vm filter returned %+v", res.VMs)
	}
	if res := get("?view=vms", http.StatusOK); res.Cluster != nil || len(res.VMs) == 0 {
		t.Errorf("vms view: cluster=%v vms=%d", res.Cluster != nil, len(res.VMs))
	}
	get("?vm=no-such-vm", http.StatusNotFound)
	get("?from=yesterday-ish", http.StatusBadRequest)
	get(fmt.Sprintf("?from=%d&to=%d", t2.Unix(), t0.Unix()), http.StatusBadRequest)

	// Method and availability guards.
	resp, err := http.Post(srv.URL+"/fleet/history", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /fleet/history: status %d, want 405", resp.StatusCode)
	}
	mem := httptest.NewServer(NewAggregator(AggregatorConfig{StaleAfter: time.Hour}))
	defer mem.Close()
	resp, err = http.Get(mem.URL + "/fleet/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("memory-only /fleet/history: status %d, want 404", resp.StatusCode)
	}
}

// TestHistoryViewsMatchFullResult: the handler merges only the view a query
// asks for, and each response is byte for byte the body that trimming
// History's full result (both merges) to that view gives.
func TestHistoryViewsMatchFullResult(t *testing.T) {
	g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	t0 := time.Unix(1_700_000_000, 0)
	t1, t2 := t0.Add(time.Minute), t0.Add(2*time.Minute)
	for h := 0; h < 3; h++ {
		batches, _ := timedChain(h, t0, t1, t2)
		ingestAll(t, g, batches)
	}
	from, to := t0.Add(30*time.Second), t2
	bounds := fmt.Sprintf("from=%d&to=%d", from.UnixNano(), to.UnixNano())
	vm := vmName(1, 0)
	for _, c := range []struct {
		query string
		trim  func(*HistoryResult)
	}{
		{"", func(res *HistoryResult) { res.VMs = nil }},
		{"&view=vms", func(res *HistoryResult) { res.Cluster = nil }},
		{"&vm=" + vm, func(res *HistoryResult) {
			for _, s := range res.VMs {
				if s.VM == vm {
					res.VMs, res.Cluster = []*core.Snapshot{s}, nil
				}
			}
		}},
	} {
		full, err := g.History(from, to)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cluster == nil || len(full.VMs) < 2 {
			t.Fatalf("the window must hold both views: %+v", full)
		}
		c.trim(full)
		want := httptest.NewRecorder()
		telemetry.WriteJSON(want, full)
		got := httptest.NewRecorder()
		g.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/fleet/history?"+bounds+c.query, nil))
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%q: status %d, body\n%s\nwant\n%s", c.query, got.Code, got.Body, want.Body)
		}
	}
}

// TestHistoryOnMemoryAggregator pins the API-level refusal too.
func TestHistoryOnMemoryAggregator(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	if _, err := g.History(time.Unix(0, 0), time.Now()); err == nil {
		t.Fatal("History on a memory-only aggregator did not error")
	}
}
