package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/vscsim"
)

// fleet_tree is the end-to-end path: seeded vscsim hosts → real agents over
// loopback HTTP → region aggregators (sharded, segment log on) → re-export
// → one global aggregator → an operator's scrape. One round advances every
// host by treeStep of virtual time, pushes every host, re-exports every
// region and scrapes the global tier; after the warm-up rounds every push
// and re-export is an interval delta.

const (
	// simIntensity scales the inventory's Pareto-distributed per-VM load:
	// a heavy-tailed fleet, a few hot VMs and many quiet ones, as in
	// arXiv 2203.10766.
	simIntensity   = 16
	fleetShapeSeed = 2007
	// noPeriodicSync keeps the segment logs' batched fsync out of the timed
	// loops: appends reach the page cache, Close still syncs. An fsync on
	// the sandbox's virtual disk takes 1–40 ms at its own whim and made
	// every fleet timing swing ±10 % between runs; the numbers are meant to
	// measure the program.
	noPeriodicSync = time.Hour
	treeStep       = 2 * time.Second
	treeShards     = 8
	// treeTeeMax bounds the frames kept for the frame probe.
	treeTeeMax = 1024
)

// seededInventory returns one region's fleet. Its shape — which VM runs
// which personality, and how hot — is part of the benchmark's configuration
// (fleetShapeSeed), because frame sizes and commands per round follow the
// shape and would otherwise differ by ±8 % from seed to seed. The run's seed
// drives every workload and storage RNG stream: the commands differ, the
// fleet does not.
func seededInventory(seed int64, region, hosts, vms int) *vscsim.Inventory {
	inv := vscsim.NewInventory(vscsim.Config{
		Seed: fleetShapeSeed + int64(region), Hosts: hosts, VMsPerHost: vms, Intensity: simIntensity,
	})
	rng := rand.New(rand.NewSource(seed*131 + int64(region)))
	for h := range inv.Hosts {
		inv.Hosts[h].Seed = rng.Int63()
		for v := range inv.Hosts[h].VMs {
			inv.Hosts[h].VMs[v].Seed = rng.Int63()
		}
	}
	return inv
}

type treeRegion struct {
	name string
	dir  string
	agg  *fleet.Aggregator
	srv  *httptest.Server
	sim  *vscsim.Sim
	rex  *fleet.ReExporter
}

type tree struct {
	e       *env
	client  *http.Client
	global  *fleet.Aggregator
	gsrv    *httptest.Server
	regions []*treeRegion
	tee     *frameTee
	cause   atomic.Int32 // span the next round trips are caused by
	hosts   int

	// running totals, for per-round differences
	commands int64 // visible at the global tier
	rounds   int
}

func setupTree(e *env) (instance, error) {
	t := &tree{e: e, global: fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour})}
	t.client = newClient(e, func() spanID { return spanID(t.cause.Load()) })
	t.gsrv = httptest.NewServer(wrapHandler(e, "fleet.aggregator.serve[global]", t.global, nil))
	if e.tr != nil {
		t.tee = &frameTee{max: treeTeeMax}
	}
	for r := 0; r < e.sz.treeRegions; r++ {
		reg := &treeRegion{name: fmt.Sprintf("region-%02d", r)}
		t.regions = append(t.regions, reg)
		var err error
		if reg.dir, err = os.MkdirTemp(e.dataDir, reg.name+"-"); err != nil {
			t.close()
			return nil, err
		}
		if reg.agg, _, err = fleet.OpenAggregator(fleet.AggregatorConfig{
			Shards: treeShards, StaleAfter: time.Hour, DataDir: reg.dir, SyncInterval: noPeriodicSync,
		}); err != nil {
			t.close()
			return nil, err
		}
		var tee *frameTee
		if r == 0 {
			tee = t.tee // host names repeat across regions, so the probe's shadow follows one region
		}
		reg.srv = httptest.NewServer(wrapHandler(e, "fleet.aggregator.serve", reg.agg, tee))
		inv := seededInventory(e.seed, r, e.sz.treeHostsPerRegion, e.sz.treeVMsPerHost)
		if reg.sim, err = vscsim.New(inv, vscsim.SimConfig{
			Push: reg.srv.URL + "/fleet/push", Workers: e.procs, Client: t.client,
		}); err != nil {
			t.close()
			return nil, err
		}
		reg.rex = fleet.NewReExporter(reg.agg, fleet.ReExporterConfig{
			Region: reg.name, Upstream: t.gsrv.URL + "/fleet/push", Client: t.client,
		})
		t.hosts += e.sz.treeHostsPerRegion
	}
	// Warm-up: the first pushes and re-exports carry full state; timing
	// starts in the delta steady state with connections and pools warm.
	var warm result
	for i := 0; i < e.sz.treeWarmRounds; i++ {
		t.round(&warm, nil)
	}
	t.gate(&warm)
	if len(warm.Problems) > 0 {
		t.close()
		return nil, fmt.Errorf("warm-up: %s", warm.Problems[0])
	}
	return t, nil
}

func (t *tree) close() {
	for _, reg := range t.regions {
		if reg.srv != nil {
			reg.srv.Close()
		}
		if reg.agg != nil {
			reg.agg.Close()
		}
		os.RemoveAll(reg.dir)
	}
	t.gsrv.Close()
	t.client.CloseIdleConnections()
}

// treeSamples are one segment's per-round figures.
type treeSamples struct {
	roundMs, visibleMs []float64
	cmdsPerS           []float64
	pushesPerS         []float64
	wireBytesPerPush   []float64
	cmds               []float64
	rexBytes           []float64 // re-export frame bytes
	roundSpans         []spanID
}

func (t *tree) agentTotals() (fleet.AgentStats, int64) {
	var a fleet.AgentStats
	var ops int64
	for _, reg := range t.regions {
		st := reg.sim.Stats()
		a.Pushes += st.Agent.Pushes
		a.DeltaPushes += st.Agent.DeltaPushes
		a.SentBytes += st.Agent.SentBytes
		a.Resyncs += st.Agent.Resyncs
		a.Retries += st.Agent.Retries
		a.Dropped += st.Agent.Dropped
		ops += st.Ops
	}
	return a, ops
}

func (t *tree) rexTotals() (pushes, sent int64) {
	for _, reg := range t.regions {
		st := reg.rex.Stats()
		pushes += st.Pushes
		sent += st.SentBytes
	}
	return
}

// round is one closed loop: nothing starts before its predecessor's reply.
func (t *tree) round(res *result, s *treeSamples) {
	e := t.e
	a0, _ := t.agentTotals()
	rp0, rb0 := t.rexTotals()
	span := e.tr.begin("tree.round", e.root, 0)
	t0 := time.Now()
	for _, reg := range t.regions {
		id := e.tr.begin("vscsim.advance", span, 0)
		err := reg.sim.RunVirtual(treeStep)
		e.tr.end(id, int64(e.sz.treeHostsPerRegion))
		if err != nil {
			res.problem("advance %s: %v", reg.name, err)
		}
	}
	tPush := time.Now()
	var failed int64
	for _, reg := range t.regions {
		id := e.tr.begin("fleet.agent.push_all", span, 0)
		t.cause.Store(int32(id))
		err := reg.sim.PushAll()
		e.tr.end(id, int64(e.sz.treeHostsPerRegion))
		if err != nil {
			failed++
			res.problem("push %s: %v", reg.name, err)
		}
	}
	pushWall := time.Since(tPush)
	for _, reg := range t.regions {
		id := e.tr.begin("fleet.reexport.export", span, 0)
		t.cause.Store(int32(id))
		err := reg.rex.ReExportNow()
		e.tr.end(id, 1)
		if err != nil {
			failed++
			res.problem("re-export %s: %v", reg.name, err)
		}
	}
	id := e.tr.begin("fleet.aggregator.scrape", span, 0)
	t.cause.Store(int32(id))
	snap, err := t.scrape()
	e.tr.end(id, 1)
	done := time.Now()
	e.tr.end(span, int64(t.hosts))
	if err != nil {
		failed++
		res.problem("scrape: %v", err)
		snap = &core.Snapshot{Commands: t.commands}
	}

	a1, _ := t.agentTotals()
	rp1, rb1 := t.rexTotals()
	pushes := a1.Pushes - a0.Pushes
	if missing := int64(t.hosts) - pushes; missing > 0 {
		failed += missing
	}
	res.op(int64(t.hosts+len(t.regions)+1), failed)
	cmds := snap.Commands - t.commands
	t.commands = snap.Commands
	t.rounds++
	if s == nil || pushes == 0 {
		return
	}
	round := done.Sub(t0)
	s.roundSpans = append(s.roundSpans, span)
	s.roundMs = append(s.roundMs, float64(round)/1e6)
	s.visibleMs = append(s.visibleMs, float64(done.Sub(tPush))/1e6)
	s.cmds = append(s.cmds, float64(cmds))
	s.cmdsPerS = append(s.cmdsPerS, float64(cmds)/round.Seconds())
	s.pushesPerS = append(s.pushesPerS, float64(pushes)/pushWall.Seconds())
	s.wireBytesPerPush = append(s.wireBytesPerPush, float64(a1.SentBytes-a0.SentBytes)/float64(pushes))
	if rp1 > rp0 {
		s.rexBytes = append(s.rexBytes, float64(rb1-rb0)/float64(rp1-rp0))
	}
}

// scrape is the operator's read: GET the merged cluster snapshot off the
// global tier and decode it.
func (t *tree) scrape() (*core.Snapshot, error) {
	resp, err := t.client.Get(t.gsrv.URL + "/fleet/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("global tier answered %s", resp.Status)
	}
	var s core.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decode snapshot: %w", err)
	}
	return &s, nil
}

// gate holds the tree to its exactness laws: the global view is the merge
// of the regions' views bin for bin (tree shape is irrelevant), and no
// command a guest completed is missing from it.
func (t *tree) gate(res *result) {
	var regional []*core.Snapshot
	for _, reg := range t.regions {
		regional = append(regional, reg.agg.ClusterSnapshot(true))
	}
	global := t.global.ClusterSnapshot(true)
	if !global.StateEquals(core.Aggregate("*", "*", regional...)) {
		res.problem("round %d: global snapshot differs from the merge of the regions' snapshots", t.rounds)
		return
	}
	if _, ops := t.agentTotals(); global.Commands < ops {
		res.problem("round %d: global tier holds %d commands, the guests completed %d", t.rounds, global.Commands, ops)
	}
}

func (t *tree) run(res *result, budget time.Duration) *treeSamples {
	s := &treeSamples{}
	deadline := time.Now().Add(budget)
	for len(s.roundMs) < t.e.sz.minSamples || time.Now().Before(deadline) {
		t.round(res, s)
		if t.rounds%t.e.sz.treeGateEvery == 0 {
			t.gate(res)
		}
		if !res.Correct {
			break
		}
	}
	t.gate(res)
	return s
}

func (t *tree) measure(e *env, res *result) {
	untraced, s := segments(e, func(budget time.Duration) *treeSamples { return t.run(res, budget) })
	if len(s.roundMs) == 0 {
		return
	}
	res.putMedian("throughput_per_s", s.cmdsPerS)
	res.putMedian("alt_throughput_per_s", s.pushesPerS)
	res.putMedian("latency_ms_p50", s.visibleMs)
	res.putMedian("bytes_per_op", s.wireBytesPerPush)
	if e.tr == nil {
		return
	}
	t.layers(res, s)
	if len(untraced.roundMs) > 0 {
		res.put("bench.trace_overhead_share", median(s.roundMs)/median(untraced.roundMs), nil)
	}
	probeFrames(e, res, t.tee.taken(), treeShards)
}

// layers reads each round's span tree into the per-layer rows. Pushes run
// on procs workers at once, so a push's parts are taken in worker time:
// the agents' own share of a PushAll is procs × its wall time minus the
// round trips made under it.
func (t *tree) layers(res *result, s *treeSamples) {
	e := t.e
	ix := indexSpans(e.tr.finished())
	var advanceMs, pushAllMs, selfUs, httpUs, serveUs, exportMs, gserveUs, scrapeUs, residualMs []float64
	for i, round := range s.roundSpans {
		adv, _, _ := ix.under(round, "vscsim.advance")
		pa, _, _ := ix.under(round, "fleet.agent.push_all")
		ex, _, _ := ix.under(round, "fleet.reexport.export")
		sc, _, _ := ix.under(round, "fleet.aggregator.scrape")
		var rt, sv float64
		var pushes int
		for _, p := range ix[round] {
			if p.Name != "fleet.agent.push_all" {
				continue
			}
			r, _, n := ix.under(p.ID, "fleet.wire.roundtrip")
			v, _, _ := ix.under(p.ID, "fleet.aggregator.serve")
			rt, sv, pushes = rt+r, sv+v, pushes+n
		}
		gs, _, gn := ix.under(round, "fleet.aggregator.serve[global]")
		if pushes == 0 || gn == 0 {
			continue
		}
		advanceMs = append(advanceMs, adv/1e6)
		pushAllMs = append(pushAllMs, pa/1e6)
		selfUs = append(selfUs, (float64(e.procs)*pa-rt)/float64(pushes)/1e3)
		httpUs = append(httpUs, (rt-sv)/float64(pushes)/1e3)
		serveUs = append(serveUs, sv/float64(pushes)/1e3)
		exportMs = append(exportMs, ex/1e6)
		gserveUs = append(gserveUs, gs/float64(gn)/1e3)
		scrapeUs = append(scrapeUs, sc/1e3)
		residualMs = append(residualMs, s.roundMs[i]-(adv+pa+ex+sc)/1e6)
	}
	res.putMedian("tree.round_ms", s.roundMs)
	res.put("tree.visible_ms_p90", percentile(s.visibleMs, 0.9), s.visibleMs)
	res.putMedian("vscsim.advance_ms", advanceMs)
	res.putMedian("vscsim.cmds_per_round", s.cmds)
	res.putMedian("fleet.agent.push_all_ms", pushAllMs)
	res.putMedian("fleet.agent.self_us", selfUs)
	res.putMedian("fleet.wire.http_us", httpUs)
	res.putMedian("fleet.aggregator.serve_us", serveUs)
	res.putMedian("fleet.reexport.export_ms", exportMs)
	res.putMedian("fleet.reexport.frame_bytes", s.rexBytes)
	res.putMedian("fleet.aggregator.global_serve_us", gserveUs)
	res.putMedian("fleet.aggregator.scrape_us", scrapeUs)
	res.putMedian("tree.residual_ms", residualMs)

	a, _ := t.agentTotals()
	res.put("fleet.agent.pushes", float64(a.Pushes), nil)
	res.put("fleet.agent.delta_share", float64(a.DeltaPushes)/float64(a.Pushes), nil)
	res.put("fleet.agent.resyncs", float64(a.Resyncs), nil)
	res.put("fleet.agent.retries", float64(a.Retries), nil)
	res.put("fleet.agent.dropped", float64(a.Dropped), nil)
	rejected := t.global.Stats().Rejected
	for _, reg := range t.regions {
		rejected += reg.agg.Stats().Rejected
	}
	res.put("fleet.aggregator.rejected", float64(rejected), nil)
}
