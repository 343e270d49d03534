package vscsim

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
)

// The federation benchmarks compare two ways of feeding a global tier
// from a 10240-host datacenter, holding the leaf churn identical:
//
//   - tree: 16 region aggregators each own 640 hosts; changed leaves
//     ingest into their region in-memory and each region re-exports its
//     rolled-up shard state upstream over HTTP. The global tier sees 16
//     synthetic hosts, and each re-export delta carries only the shards
//     that changed.
//   - flat: every changed leaf pushes its own delta frame straight to
//     the global tier over HTTP — the naive per-host fan-in.
//
// Both report global_wire_bytes/op: the bytes crossing the global tier's
// ingress per benchmark op (one churn interval of treeChangedPerOp
// leaves). The tree number must beat flat by >= 3x — that delta is the
// point of re-export. BENCH_fleet.json holds both up to its freeze; the
// end-to-end tree is gated by bench's fleet_tree workload.
const (
	treeHosts        = 10240
	treeRegions      = 16
	treeRegionShards = 8
	treeChangedPerOp = 1024
	treeTemplates    = 8
)

// treeWorld is the shared fixture: 10240 host names from a real
// inventory, and a small simulated world whose per-host registries
// provide base state and a base->cur interval delta. Leaf hosts cycle
// through the template states, so the fixture costs one 8-host
// simulation rather than 10240.
type treeWorld struct {
	hosts  []string
	fulls  [][]*core.Snapshot // template base state, the setup full push
	deltas [][]*core.Snapshot // template interval delta, the per-op churn
}

func newTreeWorld(b *testing.B) *treeWorld {
	b.Helper()
	inv := NewInventory(Config{Seed: 37, Hosts: treeHosts, VMsPerHost: 1})
	w := &treeWorld{hosts: make([]string, len(inv.Hosts))}
	for i, h := range inv.Hosts {
		w.hosts[i] = h.Name
	}

	tmpl := NewInventory(Config{Seed: 41, Hosts: treeTemplates, VMsPerHost: 1, Intensity: 4})
	sim, err := New(tmpl, SimConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.RunVirtual(20 * time.Second); err != nil {
		b.Fatal(err)
	}
	base := make([][]*core.Snapshot, treeTemplates)
	for i, h := range sim.hosts {
		base[i] = h.host.Registry().Snapshots()
	}
	if err := sim.RunVirtual(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	w.fulls, w.deltas = base, make([][]*core.Snapshot, treeTemplates)
	for i, h := range sim.hosts {
		cur := h.host.Registry().Snapshots()
		if len(cur) != len(base[i]) {
			b.Fatalf("template %d disk set changed: %d vs %d", i, len(cur), len(base[i]))
		}
		earlier := make(map[string]*core.Snapshot, len(base[i]))
		for _, s := range base[i] {
			earlier[s.VM+"\x00"+s.Disk] = s
		}
		for _, s := range cur {
			e, ok := earlier[s.VM+"\x00"+s.Disk]
			if !ok {
				b.Fatalf("template %d grew disk %s/%s mid-run", i, s.VM, s.Disk)
			}
			w.deltas[i] = append(w.deltas[i], s.Sub(e))
		}
	}
	return w
}

// leafBatch builds host h's wire batch at seq: the template full at seq 1,
// the template interval delta after.
func (w *treeWorld) leafBatch(h int, seq uint64) *fleet.Batch {
	t := h % treeTemplates
	if seq == 1 {
		return &fleet.Batch{Host: w.hosts[h], Seq: 1, Snapshots: w.fulls[t]}
	}
	return &fleet.Batch{
		Host: w.hosts[h], Seq: seq, BaseSeq: seq - 1, Delta: true,
		Snapshots: w.deltas[t],
	}
}

func newGlobalTier(b *testing.B) (*fleet.Aggregator, *httptest.Server) {
	b.Helper()
	g := fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour})
	srv := httptest.NewServer(g)
	b.Cleanup(srv.Close)
	return g, srv
}

// BenchmarkFleetTreeIngest10k is the 3-level federation path: 10240 leaf
// hosts ingest into 16 region aggregators in one process, and each op
// churns treeChangedPerOp rotating leaves (spread across every region)
// then re-exports all 16 regions upstream. ns/op is the full churn
// interval — region ingest, rollup rendering off the merge caches, and
// the HTTP re-export into the global tier; global_wire_bytes/op is the
// global ingress cost. Its end-to-end cost is gated by bench's fleet_tree
// workload (bash bench/run.sh, bench -compare).
func BenchmarkFleetTreeIngest10k(b *testing.B) {
	w := newTreeWorld(b)
	global, srv := newGlobalTier(b)

	regions := make([]*fleet.Aggregator, treeRegions)
	rexes := make([]*fleet.ReExporter, treeRegions)
	for r := range regions {
		regions[r] = fleet.NewAggregator(fleet.AggregatorConfig{
			StaleAfter: time.Hour, Shards: treeRegionShards,
		})
		rexes[r] = fleet.NewReExporter(regions[r], fleet.ReExporterConfig{
			Region:   fmt.Sprintf("region-%02d", r),
			Upstream: srv.URL + "/fleet/push",
		})
	}
	seqs := make([]uint64, treeHosts)
	for h := range w.hosts {
		seqs[h] = 1
		if err := regions[h%treeRegions].Ingest(w.leafBatch(h, 1), "push"); err != nil {
			b.Fatal(err)
		}
	}
	// First export is full state; the timed loop measures the delta
	// steady state every later interval runs in.
	for _, rex := range rexes {
		if err := rex.ReExportNow(); err != nil {
			b.Fatal(err)
		}
	}
	sent := func() int64 {
		var n int64
		for _, rex := range rexes {
			n += rex.Stats().SentBytes
		}
		return n
	}
	wireStart, cursor := sent(), 0

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < treeChangedPerOp; j++ {
			h := cursor % treeHosts
			cursor++
			seqs[h]++
			if err := regions[h%treeRegions].Ingest(w.leafBatch(h, seqs[h]), "push"); err != nil {
				b.Fatal(err)
			}
		}
		for _, rex := range rexes {
			if err := rex.ReExportNow(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()

	st := global.Stats()
	if st.Hosts != treeRegions {
		b.Fatalf("global tier sees %d hosts, want %d regions", st.Hosts, treeRegions)
	}
	for _, rex := range rexes {
		if rs := rex.Stats(); rs.Errors > 0 || rs.Resyncs > 0 {
			b.Fatalf("re-export %s: %d errors, %d resyncs (last: %s)",
				rs.Region, rs.Errors, rs.Resyncs, rs.LastError)
		}
	}
	b.ReportMetric(float64(sent()-wireStart)/float64(b.N), "global_wire_bytes/op")
}

// BenchmarkFleetFlatIngest10k is the naive fan-in control for the tree
// benchmark: the identical 10240-host world and per-op churn, but every
// changed leaf POSTs its own delta frame straight to the global tier.
// global_wire_bytes/op here divided by the tree number is the re-export
// win claimed in DESIGN.md.
func BenchmarkFleetFlatIngest10k(b *testing.B) {
	w := newTreeWorld(b)
	global, srv := newGlobalTier(b)
	client := srv.Client()

	seqs := make([]uint64, treeHosts)
	for h := range w.hosts {
		seqs[h] = 1
		if err := global.Ingest(w.leafBatch(h, 1), "push"); err != nil {
			b.Fatal(err)
		}
	}
	var wire int64
	cursor := 0

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < treeChangedPerOp; j++ {
			h := cursor % treeHosts
			cursor++
			seqs[h]++
			frame, err := fleet.EncodeBatchBytes(w.leafBatch(h, seqs[h]))
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Post(srv.URL+"/fleet/push", fleet.ContentType, bytes.NewReader(frame))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("push %s: %s", w.hosts[h], resp.Status)
			}
			wire += int64(len(frame))
		}
	}
	b.StopTimer()

	st := global.Stats()
	if st.Hosts != treeHosts {
		b.Fatalf("global tier sees %d hosts, want %d", st.Hosts, treeHosts)
	}
	b.ReportMetric(float64(wire)/float64(b.N), "global_wire_bytes/op")
}
