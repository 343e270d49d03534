package fleet

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// treeRegion wires one mid-tier: an aggregator fed by test pushes, plus
// its re-exporter pointed at the global tier's push URL.
type treeRegion struct {
	agg *Aggregator
	rex *ReExporter
}

func newTreeRegion(t *testing.T, name, upstream string, shards int) *treeRegion {
	t.Helper()
	agg := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: shards})
	rex := NewReExporter(agg, ReExporterConfig{Region: name, Upstream: upstream})
	return &treeRegion{agg: agg, rex: rex}
}

// TestReExportTreeMergeEquivalence is the correctness anchor of the
// federation design: a 3-level tree (agents → two regions → global) must
// leave the global tier holding a cluster merge bin-identical to (a) one
// flat collector fed every host directly and (b) the merge of the two
// regions' own cluster views — at every level, aggregation is the same
// associative fold. It also pins the liveness metadata: the global sees
// two level-1 synthetic hosts carrying the leaf counts of their regions.
func TestReExportTreeMergeEquivalence(t *testing.T) {
	global := newAggServer(t, AggregatorConfig{StaleAfter: time.Hour, Shards: 4})
	west := newTreeRegion(t, "region-west", global.pushURL(), 4)
	east := newTreeRegion(t, "region-east", global.pushURL(), 2)

	flat := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	var all []*core.Snapshot
	for i := 0; i < 7; i++ {
		reg := makeRegistry(i, 2, 2, 100+i*30)
		host := fmt.Sprintf("esx-%02d", i)
		region := west
		if i%2 == 1 {
			region = east
		}
		pushFull(t, region.agg, host, 1, reg)
		pushFull(t, flat, host, 1, reg)
		all = append(all, reg.Snapshots()...)
	}
	if err := west.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	if err := east.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}

	want := core.Aggregate("cluster", "*", all...)
	got := global.agg.ClusterSnapshot(false)
	if got == nil || !sameSnapshot(got, want) {
		t.Error("global cluster merge not bin-exact vs one collector fed everything")
	}
	if !sameSnapshot(got, flat.ClusterSnapshot(false)) {
		t.Error("global cluster merge diverged from the flat aggregator control")
	}
	regionMerge := core.Aggregate("cluster", "*",
		west.agg.ClusterSnapshot(false), east.agg.ClusterSnapshot(false))
	if !sameSnapshot(got, regionMerge) {
		t.Error("global cluster merge diverged from the merge of region views")
	}

	hosts := global.agg.Hosts()
	if len(hosts) != 2 {
		t.Fatalf("global hosts = %d, want the 2 region rollups", len(hosts))
	}
	byName := map[string]HostStatus{}
	for _, h := range hosts {
		byName[h.Host] = h
	}
	for name, wantLeaves := range map[string]int{"region-west": 4, "region-east": 3} {
		h, ok := byName[name]
		if !ok {
			t.Fatalf("global missing rollup host %q: %+v", name, hosts)
		}
		if h.Level != 1 || h.Leaves != wantLeaves {
			t.Errorf("%s level/leaves = %d/%d, want 1/%d", name, h.Level, h.Leaves, wantLeaves)
		}
	}
	tiers := tiersOf(global.agg.Hosts())
	if len(tiers) != 1 || tiers[0].Level != 1 || tiers[0].Hosts != 2 || tiers[0].Leaves != 7 {
		t.Errorf("global tiers = %+v, want one level-1 tier with 2 hosts, 7 leaves", tiers)
	}
	for _, rex := range []*ReExporter{west.rex, east.rex} {
		if st := rex.Stats(); st.Level != 1 || st.FullPushes != 1 || st.Errors != 0 {
			t.Errorf("%s stats = %+v, want level 1, one full push, no errors", rex.Region(), st)
		}
	}
}

// TestReExportDeltasScaleWithRegionsChanged pins the perf property the
// tentpole is for: after the first acknowledged push, a change confined
// to one downstream host re-exports as a delta carrying only that host's
// shard — and a quiet interval re-exports as a liveness-only heartbeat
// that leaves the upstream's merge cache valid.
func TestReExportDeltasScaleWithRegionsChanged(t *testing.T) {
	global := newAggServer(t, AggregatorConfig{StaleAfter: time.Hour})
	region := newTreeRegion(t, "region-a", global.pushURL(), 8)

	regs := make([]*core.Registry, 6)
	for i := range regs {
		regs[i] = makeRegistry(i, 1, 2, 120)
		pushFull(t, region.agg, fmt.Sprintf("esx-%02d", i), 1, regs[i])
	}
	if err := region.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	fullBytes := region.rex.Stats().SentBytes

	// One leaf changes: the next re-export is a delta of one shard.
	feed(regs[2].List()[0], 999, 80)
	pushFull(t, region.agg, "esx-02", 2, regs[2])
	if err := region.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	st := region.rex.Stats()
	if st.DeltaPushes != 1 || st.FullPushes != 1 {
		t.Fatalf("after one changed host: %+v, want 1 delta + 1 full", st)
	}
	// The ≥3× win is measured at 10k-host scale by BenchmarkFleetTreeIngest10k;
	// at 6 hosts the fixed frame overhead dominates, so here the delta just
	// has to beat re-sending the full rollup.
	deltaBytes := st.SentBytes - fullBytes
	if deltaBytes <= 0 || deltaBytes >= fullBytes {
		t.Errorf("one-shard delta cost %d bytes vs %d full — no wire win", deltaBytes, fullBytes)
	}
	var want []*core.Snapshot
	for _, reg := range regs {
		want = append(want, reg.Snapshots()...)
	}
	if got := global.agg.ClusterSnapshot(false); !sameSnapshot(got, core.Aggregate("cluster", "*", want...)) {
		t.Error("global view diverged after delta re-export")
	}

	// Quiet interval: heartbeat only — the upstream sees a duplicate
	// (liveness refresh, nothing applied) and its merge cache survives.
	gst := global.agg.Stats()
	before := global.agg.ClusterSnapshot(false)
	hitsBefore := global.agg.Stats().MergeCacheHits
	if err := region.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	st = region.rex.Stats()
	if st.Heartbeats != 1 {
		t.Fatalf("quiet interval sent %+v, want 1 heartbeat", st)
	}
	after := global.agg.Stats()
	if after.Duplicates != gst.Duplicates+1 || after.DeltasApplied != gst.DeltasApplied {
		t.Errorf("heartbeat ingest: duplicates %d→%d, applied %d→%d, want one duplicate, nothing applied",
			gst.Duplicates, after.Duplicates, gst.DeltasApplied, after.DeltasApplied)
	}
	if got := global.agg.ClusterSnapshot(false); !sameSnapshot(got, before) {
		t.Error("heartbeat changed the global view")
	}
	if hits := global.agg.Stats().MergeCacheHits; hits <= hitsBefore {
		t.Errorf("merge cache hits %d→%d: heartbeat invalidated the upstream cache", hitsBefore, hits)
	}
}

// TestReExportLostAckKeepsUpstreamExact: the upstream applies a delta but
// its ack is lost. The next rendering is new content, so it must not reuse
// the lost delta's sequence number — the upstream would take it as a
// duplicate and silently drop an interval. A fresh number draws a seq-gap
// 409 instead, and the resync leaves the upstream exact.
func TestReExportLostAckKeepsUpstreamExact(t *testing.T) {
	global := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	var loseAck atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		global.ServeHTTP(rec, r)
		if loseAck.CompareAndSwap(true, false) {
			http.Error(w, "ack lost", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	region := newTreeRegion(t, "region-a", srv.URL+"/fleet/push", 4)

	regs := make([]*core.Registry, 3)
	for i := range regs {
		regs[i] = makeRegistry(i, 1, 2, 90)
		pushFull(t, region.agg, fmt.Sprintf("esx-%02d", i), 1, regs[i])
	}
	if err := region.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}

	loseAck.Store(true)
	feed(regs[0].List()[0], 501, 60)
	pushFull(t, region.agg, "esx-00", 2, regs[0])
	if err := region.rex.ReExportNow(); err == nil {
		t.Fatal("re-export whose ack was lost reported success")
	}
	if got := global.Stats().DeltasApplied; got != 1 {
		t.Fatalf("upstream applied %d deltas before losing the ack, want 1", got)
	}
	feed(regs[1].List()[1], 502, 60)
	pushFull(t, region.agg, "esx-01", 2, regs[1])
	if err := region.rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	if !global.ClusterSnapshot(false).StateEquals(region.agg.ClusterSnapshot(false)) {
		t.Error("upstream lost an interval after a lost ack")
	}
}

// TestReExportLevelAwareStaleness pins the staleness algebra: a host
// going stale at its region drops out of the region's merge, and the very
// next re-export horizon carries the shrunken state upstream — the global
// never needs its own per-leaf liveness to forget a dead leaf.
func TestReExportLevelAwareStaleness(t *testing.T) {
	global := newAggServer(t, AggregatorConfig{StaleAfter: time.Hour})
	agg, clk := newTestAggregator(10 * time.Second)
	rex := NewReExporter(agg, ReExporterConfig{Region: "region-a", Upstream: global.pushURL()})

	regA, regB := makeRegistry(1, 1, 1, 100), makeRegistry(2, 1, 1, 150)
	pushFull(t, agg, "esx-a", 1, regA)
	pushFull(t, agg, "esx-b", 1, regB)
	if err := rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	both := core.Aggregate("cluster", "*", append(regA.Snapshots(), regB.Snapshots()...)...)
	if got := global.agg.ClusterSnapshot(false); !sameSnapshot(got, both) {
		t.Fatal("global view wrong before the host went stale")
	}

	// esx-b stops reporting; esx-a keeps refreshing its liveness.
	clk.advance(11 * time.Second)
	pushFull(t, agg, "esx-a", 2, regA)
	if err := rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	onlyA := core.Aggregate("cluster", "*", regA.Snapshots()...)
	if got := global.agg.ClusterSnapshot(false); !sameSnapshot(got, onlyA) {
		t.Error("global still carries the stale host after one re-export horizon")
	}
	if h := global.agg.Hosts(); len(h) != 1 || h[0].Leaves != 1 {
		t.Errorf("global rollup leaves = %+v, want 1 after esx-b aged out", h)
	}
}

// TestReExportPartitionShapeIrrelevant is the tree-shape property: however
// N hosts are partitioned into regions — one region holding everything, a
// region per host, or anything random in between — the global cluster view
// is bit-identical to the flat control. Run under -race in CI.
func TestReExportPartitionShapeIrrelevant(t *testing.T) {
	const numHosts = 9
	regs := make([]*core.Registry, numHosts)
	var all []*core.Snapshot
	for i := range regs {
		regs[i] = makeRegistry(i, 2, 1, 80+i*15)
		all = append(all, regs[i].Snapshots()...)
	}
	want := core.Aggregate("cluster", "*", all...)

	rng := rand.New(rand.NewSource(42))
	partitions := [][]int{
		make([]int, numHosts), // one region holds every host
		nil,                   // one region per host (filled below)
	}
	for i := 0; i < numHosts; i++ {
		partitions[1] = append(partitions[1], i)
	}
	for p := 0; p < 3; p++ { // seeded-random partitions into 2..4 regions
		k := 2 + rng.Intn(3)
		part := make([]int, numHosts)
		for i := range part {
			part[i] = rng.Intn(k)
		}
		partitions = append(partitions, part)
	}

	for pi, part := range partitions {
		global := newAggServer(t, AggregatorConfig{StaleAfter: time.Hour, Shards: 4})
		regions := map[int]*treeRegion{}
		for host, ri := range part {
			r, ok := regions[ri]
			if !ok {
				r = newTreeRegion(t, fmt.Sprintf("region-%02d", ri), global.pushURL(), 1+ri%8)
				regions[ri] = r
			}
			pushFull(t, r.agg, fmt.Sprintf("esx-%02d", host), 1, regs[host])
		}
		for _, r := range regions {
			if err := r.rex.ReExportNow(); err != nil {
				t.Fatalf("partition %d: %v", pi, err)
			}
		}
		got := global.agg.ClusterSnapshot(false)
		if got == nil || !sameSnapshot(got, want) {
			t.Errorf("partition %d (%d regions): global view not bit-identical to flat control",
				pi, len(regions))
		}
		var leaves int
		for _, h := range global.agg.Hosts() {
			leaves += h.Leaves
		}
		if leaves != numHosts {
			t.Errorf("partition %d: global counts %d leaves, want %d", pi, leaves, numHosts)
		}
		if fails := global.failures.Load(); fails != 0 {
			t.Errorf("partition %d: %d non-200s from the global tier", pi, fails)
		}
	}
}

// TestReExportTraceTraversesTwoHops pins trace continuity across the
// tree: the agent's trace ID is visible in the region's pipeline events
// (hop one), and the re-exporter's trace ID — stamped on the frame it
// renders — is visible in the global's events (hop two), so
// /debug/trace at each tier shows its hop of the path and the
// KindReExport event links them through the region name.
func TestReExportTraceTraversesTwoHops(t *testing.T) {
	regionObs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	globalObs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	global := newAggServer(t, AggregatorConfig{StaleAfter: time.Hour, Obs: globalObs})
	agg := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Obs: regionObs})
	regionSrv := httptest.NewServer(agg)
	t.Cleanup(regionSrv.Close)
	rex := NewReExporter(agg, ReExporterConfig{
		Region: "region-a", Upstream: global.pushURL(), Obs: regionObs,
	})

	reg := makeRegistry(3, 1, 1, 90)
	a := NewAgent(reg, AgentConfig{Host: "esx-a", Endpoint: regionSrv.URL + "/fleet/push"})
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	if err := rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}

	tracesAt := func(tr *fleetobs.Tracker, stage string) map[string]bool {
		out := map[string]bool{}
		for _, e := range tr.Events(0) {
			if (stage == "" || e.Stage == stage) && e.TraceID != "" {
				out[e.TraceID] = true
			}
		}
		return out
	}
	agentPrefix, rexPrefix := "esx-a-", "region-a-"

	// Hop one: the agent's trace reached the region's ingest stage.
	hop1 := tracesAt(regionObs, "ingest")
	if !hasPrefixIn(hop1, agentPrefix) {
		t.Errorf("region ingest events carry traces %v, none from %s*", keys(hop1), agentPrefix)
	}
	// Hop two: the re-exported frame's trace reached the global's ingest.
	hop2 := tracesAt(globalObs, "ingest")
	if !hasPrefixIn(hop2, rexPrefix) {
		t.Errorf("global ingest events carry traces %v, none from %s*", keys(hop2), rexPrefix)
	}
	// The link between hops: the region emitted a KindReExport event whose
	// trace is exactly what the global saw.
	var linked bool
	for _, e := range regionObs.Events(0) {
		if e.Kind == fleetobs.KindReExport && hop2[e.TraceID] {
			linked = true
		}
	}
	if !linked {
		t.Error("no KindReExport event at the region matches a trace ingested by the global")
	}
}

func hasPrefixIn(set map[string]bool, prefix string) bool {
	for id := range set {
		if strings.HasPrefix(id, prefix) {
			return true
		}
	}
	return false
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	return out
}

// TestFleetChaosKillMidTierAggregator is the federation failure drill:
// agents delta-push into a region whose aggregator AND re-exporter are
// killed and replaced mid-run (state lost, new boot incarnation). The
// agents resync to the new region via 409s, the new re-exporter's first
// delta draws a boot-changed 409 from the global and resyncs with full
// state, and at the end the global's view is bin-exact against the
// registries. The only non-200s anywhere are the protocol's 409s. Run
// under -race in CI with the other chaos scenarios.
func TestFleetChaosKillMidTierAggregator(t *testing.T) {
	const numAgents = 3
	global := newAggServer(t, AggregatorConfig{StaleAfter: time.Minute, Shards: 4})

	var region atomic.Pointer[treeRegion]
	newRegion := func() *treeRegion {
		agg := NewAggregator(AggregatorConfig{StaleAfter: time.Minute, Shards: 4})
		return &treeRegion{agg: agg, rex: NewReExporter(agg, ReExporterConfig{
			Region: "region-a", Upstream: global.pushURL(),
		})}
	}
	region.Store(newRegion())
	var regionOther atomic.Int64 // region-tier non-200s that are not 409s
	regionSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		region.Load().agg.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
			regionOther.Add(1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer regionSrv.Close()

	type host struct {
		reg   *core.Registry
		col   *core.Collector
		agent *Agent
	}
	hosts := make([]*host, numAgents)
	for i := range hosts {
		reg := core.NewRegistry()
		col := core.NewCollector(vmName(i, 0), diskName(0))
		col.Enable()
		reg.Register(col)
		hosts[i] = &host{reg: reg, col: col, agent: NewAgent(reg, AgentConfig{
			Host:     "esx-" + string(rune('a'+i)),
			Endpoint: regionSrv.URL + "/fleet/push",
			Interval: 5 * time.Millisecond,
		})}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(h *host, seed int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				feed(h.col, seed+n, 20)
				time.Sleep(time.Millisecond)
			}
		}(h, i*1000)
		h.agent.Start()
	}
	// The re-export loop runs against whichever region is current, and a
	// reader keeps scraping the global across the swap.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			region.Load().rex.ReExportNow()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			global.agg.ClusterSnapshot(false)
			tiersOf(global.agg.Hosts())
			time.Sleep(time.Millisecond)
		}
	}()

	// Let the chains establish through both tiers, then kill the mid-tier.
	waitFor(t, 2*time.Second, func() bool {
		r := region.Load()
		return len(r.agg.Hosts()) == numAgents && r.rex.Stats().DeltaPushes > 0
	})
	oldRex := region.Load().rex
	region.Store(newRegion())

	// The new region must learn every agent (via their 409-driven
	// resyncs) and its new-boot re-exporter must displace its
	// predecessor's state at the global.
	waitFor(t, 2*time.Second, func() bool {
		r := region.Load()
		return len(r.agg.Hosts()) == numAgents && r.rex.Stats().Pushes > 0
	})
	// Split-brain probe: the dead re-exporter fires one last time. Its
	// delta (or heartbeat) carries the old boot for a name the global now
	// stores under the new boot — a boot-changed 409 that resyncs it with
	// full state rather than silently corrupting the chain.
	if err := oldRex.ReExportNow(); err != nil {
		t.Errorf("old re-exporter's last flush: %v", err)
	}
	if oldRex.Stats().Resyncs == 0 {
		t.Error("old-boot re-exporter was not refused and resynced")
	}

	close(stop)
	wg.Wait()
	for _, h := range hosts {
		h.agent.Stop()
		if err := h.agent.PushNow(); err != nil {
			t.Fatalf("final push from %s: %v", h.agent.Host(), err)
		}
	}
	if err := region.Load().rex.ReExportNow(); err != nil {
		t.Fatalf("final re-export: %v", err)
	}

	var all []*core.Snapshot
	for _, h := range hosts {
		all = append(all, h.reg.Snapshots()...)
	}
	want := core.Aggregate("cluster", "*", all...)
	got := global.agg.ClusterSnapshot(false)
	if got == nil || !sameSnapshot(got, want) {
		t.Error("global view not bin-exact against the registries after the mid-tier kill")
	}
	if n := regionOther.Load(); n != 0 {
		t.Errorf("%d region-tier non-200s besides the protocol's 409s", n)
	}
	if fails := global.failures.Load(); fails != 0 {
		// The global tier counts every non-200, and the new re-exporter's
		// boot-changed 409 is expected protocol — subtract what the
		// re-exporters recorded as resyncs.
		resyncs := oldRex.Stats().Resyncs + region.Load().rex.Stats().Resyncs
		if fails > resyncs {
			t.Errorf("global returned %d non-200s, only %d explained by resync 409s", fails, resyncs)
		}
	}
	if global.agg.Stats().ResyncBootChanged == 0 {
		t.Error("the replaced re-exporter never drew a boot-changed 409 from the global")
	}
}
