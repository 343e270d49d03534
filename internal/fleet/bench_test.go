package fleet

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// BenchmarkFleetMerge measures the cluster merge over a populated
// aggregator: 8 hosts × 4 VMs × 2 disks = 64 snapshots folded into one.
func BenchmarkFleetMerge(b *testing.B) {
	agg := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	for h := 0; h < 8; h++ {
		reg := makeRegistry(h, 4, 2, 200)
		if err := agg.Ingest(&Batch{
			Host: fmt.Sprintf("esx-%02d", h), Seq: 1, Snapshots: reg.Snapshots(),
		}, "push"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := agg.ClusterSnapshot(false); s == nil {
			b.Fatal("nil cluster snapshot")
		}
	}
}

// BenchmarkFleetEncodeDecode measures one wire round trip of a realistic
// batch (4 VMs × 2 disks).
func BenchmarkFleetEncodeDecode(b *testing.B) {
	reg := makeRegistry(1, 4, 2, 200)
	batch := &Batch{Host: "esx-01", Seq: 1, Snapshots: reg.Snapshots()}
	data, err := EncodeBatchBytes(batch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EncodeBatchBytes(batch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeBatch(bytes.NewReader(out)); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetHostNames returns n deterministic host names.
func fleetHostNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("esx-%04d", i)
	}
	return names
}

// benchPopulate fills agg with one small batch per host (1 VM × 1 disk —
// a fleet-scale benchmark wants many hosts, not big hosts) and returns a
// second snapshot set per seed class to rotate through on re-ingest.
func benchPopulate(b *testing.B, agg *Aggregator, hosts []string) [][]*core.Snapshot {
	b.Helper()
	const variants = 8
	rotations := make([][]*core.Snapshot, variants)
	for v := 0; v < variants; v++ {
		rotations[v] = makeRegistry(v, 1, 1, 50).Snapshots()
	}
	for i, h := range hosts {
		if err := agg.Ingest(&Batch{
			Host: h, Seq: 1, Snapshots: rotations[i%variants],
		}, "push"); err != nil {
			b.Fatal(err)
		}
	}
	return rotations
}

// benchIngestScrape is the steady-state op a busy aggregator lives in: one
// host's batch arrives, then a reader scrapes the cluster merge. On the
// monolithic configuration every scrape re-folds every host; sharded, a
// scrape re-folds only the one dirty shard and combines the other shards'
// memoized merges — the gap this benchmark exists to show.
func benchIngestScrape(b *testing.B, cfg AggregatorConfig, numHosts int) {
	agg := NewAggregator(cfg)
	hosts := fleetHostNames(numHosts)
	rotations := benchPopulate(b, agg, hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := i % numHosts
		if err := agg.Ingest(&Batch{
			Host: hosts[h], Seq: uint64(2 + i/numHosts), Snapshots: rotations[(h+i)%len(rotations)],
		}, "push"); err != nil {
			b.Fatal(err)
		}
		if s := agg.ClusterSnapshot(false); s == nil {
			b.Fatal("nil cluster snapshot")
		}
	}
}

func BenchmarkFleetIngestScrapeSharded256(b *testing.B) {
	benchIngestScrape(b, AggregatorConfig{StaleAfter: time.Hour}, 256)
}
func BenchmarkFleetIngestScrapeSharded1024(b *testing.B) {
	benchIngestScrape(b, AggregatorConfig{StaleAfter: time.Hour}, 1024)
}

// BenchmarkFleetIngest1024 is the pure ingest cost: batch validation plus
// shard insertion at 1024 hosts, no scraping.
func BenchmarkFleetIngest1024(b *testing.B) {
	agg := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	hosts := fleetHostNames(1024)
	rotations := benchPopulate(b, agg, hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := i % len(hosts)
		if err := agg.Ingest(&Batch{
			Host: hosts[h], Seq: uint64(2 + i/len(hosts)), Snapshots: rotations[(h+i)%len(rotations)],
		}, "push"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetIngest1024Traced is the same ingest loop with the
// pipeline tracker attached at its default 1-in-64 sampling — the cost of
// observability on the hot path. Compare it with the untraced run in the
// same session only: the two differ by less than their run-to-run spread,
// so no absolute ratio is fenced.
func BenchmarkFleetIngest1024Traced(b *testing.B) {
	agg := NewAggregator(AggregatorConfig{
		StaleAfter: time.Hour,
		Obs:        fleetobs.New(fleetobs.Config{}),
	})
	hosts := fleetHostNames(1024)
	rotations := benchPopulate(b, agg, hosts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := i % len(hosts)
		if err := agg.Ingest(&Batch{
			Host: hosts[h], Seq: uint64(2 + i/len(hosts)), Snapshots: rotations[(h+i)%len(rotations)],
		}, "push"); err != nil {
			b.Fatal(err)
		}
	}
}

// chainStates returns the states behind fleet_durable's chains: per
// template host, 2 VMs × 2 disks after each of 8 frames, every disk seeing
// traffic between frames.
func chainStates() [][][]*core.Snapshot {
	const variants, frames = 8, 8
	states := make([][][]*core.Snapshot, variants) // [variant][frame]
	for v := range states {
		reg := makeRegistry(v, 2, 2, 50)
		for k := range frames {
			for c, col := range reg.List() {
				feed(col, (v*frames+k)*4+c, 20*min(k, 1))
			}
			states[v] = append(states[v], reg.Snapshots())
		}
	}
	return states
}

// chainBatch is frame k of host h's chain over states: the full frame, then
// interval deltas, one a second from t0.
func chainBatch(h string, k int, states [][]*core.Snapshot, t0 time.Time) *Batch {
	batch := &Batch{Host: h, Seq: uint64(k + 1), SentUnixNano: t0.Add(time.Duration(k) * time.Second).UnixNano(), Snapshots: states[k]}
	if k > 0 {
		batch.Delta, batch.BaseSeq = true, uint64(k)
		batch.Snapshots, _ = new(chain).subAgainst(states[k], states[k-1])
	}
	return batch
}

// benchChains gives every host the chain fleet_durable's agents send: one
// full frame, then seven interval deltas (chainStates, chainBatch).
func benchChains(b *testing.B, agg *Aggregator, hosts []string, t0 time.Time) {
	b.Helper()
	states := chainStates()
	for i, h := range hosts {
		for k := range states[i%len(states)] {
			if err := agg.Ingest(chainBatch(h, k, states[i%len(states)], t0), "push"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// decodeChains renders every template host's chain (chainStates) as the
// frames a decoder reads.
func decodeChains(tb testing.TB) (frames [][]*frame, states [][][]*core.Snapshot) {
	tb.Helper()
	states = chainStates()
	frames = make([][]*frame, len(states))
	for v := range states {
		for k := range states[v] {
			raw, err := EncodeBatchBytes(chainBatch("esx-decode", k, states[v], time.Unix(0, 0)))
			if err != nil {
				tb.Fatal(err)
			}
			f, err := readFrame(bytes.NewReader(raw), nil)
			if err != nil {
				tb.Fatal(err)
			}
			frames[v] = append(frames[v], f)
		}
	}
	return frames, states
}

// decodeChain decodes one host's frames in turn, each delta onto the state
// the frames before it left, owned (in place) or shared (onto copies), and
// calls check with each state.
func decodeChain(tb testing.TB, frames []*frame, owned bool, check func(k int, snaps []*core.Snapshot)) {
	var snaps []*core.Snapshot
	for k, f := range frames {
		var err error
		if snaps, err = decodePayload(f.payload, f.count, f.Delta, snaps, owned); err != nil {
			tb.Fatal(err)
		}
		check(k, snaps)
	}
}

// TestFleetDecodeChainMatchesStates is BenchmarkFleetDecodeChain's
// correctness sibling: decoding each chain owned or shared gives the
// sender's state after every frame, and a shared decode writes none of the
// states it builds on.
func TestFleetDecodeChainMatchesStates(t *testing.T) {
	frames, states := decodeChains(t)
	for _, owned := range []bool{true, false} {
		for v := range frames {
			var prev, kept []*core.Snapshot
			decodeChain(t, frames[v], owned, func(k int, snaps []*core.Snapshot) {
				for i, want := range states[v][k] {
					if snaps[i].VM != want.VM || snaps[i].Disk != want.Disk || !snaps[i].StateEquals(want) {
						t.Fatalf("owned %v: host %d frame %d disk %d differs from the sender's state", owned, v, k, i)
					}
				}
				for i := range kept {
					if !owned && !prev[i].StateEquals(kept[i]) {
						t.Fatalf("shared: host %d frame %d wrote disk %d of the state before it", v, k, i)
					}
				}
				prev, kept = snaps, slices.Clone(snaps)
				core.MakeWritable(kept)
			})
		}
	}
}

// BenchmarkFleetDecodeChain measures the decoder alone on fleet_durable's
// chains: per op, 8 hosts' full frame and 7 deltas each, onto an owned
// chain as boot replay and History decode, and onto a shared one as live
// ingest does.
func BenchmarkFleetDecodeChain(b *testing.B) {
	frames, _ := decodeChains(b)
	for _, mode := range []struct {
		name  string
		owned bool
	}{{"owned", true}, {"shared", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for range b.N {
				for _, host := range frames {
					decodeChain(b, host, mode.owned, func(int, []*core.Snapshot) {})
				}
			}
			perFrame := time.Since(start).Seconds() * 1e6 / float64(b.N*len(frames)*len(frames[0]))
			b.ReportMetric(perFrame, "us/frame")
		})
	}
}

// BenchmarkFleetReplay1024 measures a boot replay of a 1024-host segment
// log, 1 full frame and 7 deltas per host — the restart cost the log
// trades for zero agent resyncs.
func BenchmarkFleetReplay1024(b *testing.B) {
	dir := b.TempDir()
	cfg := AggregatorConfig{StaleAfter: time.Hour, DataDir: dir}
	agg, _, err := OpenAggregator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := fleetHostNames(1024)
	benchChains(b, agg, hosts, time.Now().Add(-time.Minute))
	if err := agg.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, st, err := OpenAggregator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if st.Hosts != len(hosts) || st.Skipped != 0 {
			b.Fatalf("replay recovered %d hosts and skipped %d frames, want %d and 0", st.Hosts, st.Skipped, len(hosts))
		}
		g.Close()
	}
}

// BenchmarkFleetHistoryQuery measures one whole-fleet /fleet/history
// window over a populated log: 64 hosts × 8-frame chains scanned from
// disk, windowed from the fourth frame and merged per query.
func BenchmarkFleetHistoryQuery(b *testing.B) {
	dir := b.TempDir()
	cfg := AggregatorConfig{StaleAfter: time.Hour, DataDir: dir}
	agg, _, err := OpenAggregator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer agg.Close()
	t0 := time.Now().Add(-time.Minute)
	benchChains(b, agg, fleetHostNames(64), t0)
	from, to := t0.Add(3*time.Second), time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := agg.History(from, to)
		if err != nil {
			b.Fatal(err)
		}
		if res.Hosts != 64 {
			b.Fatalf("history saw %d hosts, want 64", res.Hosts)
		}
	}
}

// benchWireBytes measures the steady-state wire cost of one push interval
// on a slowly-changing host: 8 disks of which one saw traffic. Full sends
// everything every time; Delta sends one disk's interval delta and omits
// the seven unchanged ones. The wire_bytes/op metric is what BENCH_fleet
// records as the ≥3× delta win.
func benchWireBytes(b *testing.B, delta bool) {
	reg := makeRegistry(3, 4, 4, 2000) // 16 disks with dense cumulative histograms
	base := reg.Snapshots()
	feed(reg.List()[0], 71, 60) // one active disk this interval
	cur := reg.Snapshots()

	batch := &Batch{Host: "esx-01", Seq: 2, Snapshots: cur}
	if delta {
		deltas, ok := new(chain).subAgainst(cur, base)
		if !ok {
			b.Fatal("disk sets diverged")
		}
		batch = &Batch{Host: "esx-01", Seq: 2, BaseSeq: 1, Delta: true, Snapshots: deltas}
	}
	var wireBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EncodeBatchBytes(batch)
		if err != nil {
			b.Fatal(err)
		}
		wireBytes = len(out)
	}
	b.ReportMetric(float64(wireBytes), "wire_bytes/op")
}

func BenchmarkFleetWireBytesFull(b *testing.B)  { benchWireBytes(b, false) }
func BenchmarkFleetWireBytesDelta(b *testing.B) { benchWireBytes(b, true) }

// BenchmarkFleetMergeCached measures a scrape-only aggregator (no ingest
// between reads) at 64 hosts: every shard serves its memoized merge.
func BenchmarkFleetMergeCached(b *testing.B) {
	agg := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	benchPopulate(b, agg, fleetHostNames(64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := agg.ClusterSnapshot(false); s == nil {
			b.Fatal("nil cluster snapshot")
		}
	}
}
