// Command vscsifleet federates characterization across hosts: the same
// constant-space histograms the paper keeps per virtual disk, merged
// bin-exactly into per-VM and cluster-wide views.
//
// Aggregator mode — accept pushes, serve the merged views; with -data-dir
// every accepted batch also lands in a crash-safe segment log that is
// replayed on the next boot (no agent resyncs needed) and answers
// /fleet/history range queries:
//
//	vscsifleet -mode aggregator -listen :9108 -stale 6s \
//	    -data-dir /var/lib/vscsifleet -retention 24h
//
// Federation — a mid-tier aggregator re-exports its merged state to a
// parent through the same push protocol it ingests, so trees compose to
// any depth (agents → region → global). The region renders as one
// synthetic upstream host whose deltas carry only the shards that changed:
//
//	vscsifleet -mode aggregator -listen :9109 -region region-west \
//	    -upstream http://global:9108/fleet/push -reexport-interval 2s
//
// Agent mode — simulate one host's workload and push its registry:
//
//	vscsifleet -mode agent -host esx-01 -workload iometer-8k-rand \
//	    -push http://127.0.0.1:9108/fleet/push -interval 2s
//
// Sim mode — a synthetic datacenter in one process: -hosts wall-paced
// simulated hosts (each with -vms-per-host VMs drawn from the fleet
// personality population at heavy-tailed intensities, all derived from
// one -seed), every host pushing through a real fleet agent:
//
//	vscsifleet -mode sim -hosts 1000 -vms-per-host 8 -seed 42 -speed 100 \
//	    -push http://127.0.0.1:9108/fleet/push -interval 2s
//
// Pair it with an aggregator started with -catalog, and /fleet/catalog
// (or `vscsictl catalog`) classifies every simulated VM back to the
// personality that generated it — the paper's §7 loop at fleet scope.
//
// The aggregator serves /fleet/hosts, /fleet/snapshot, /fleet/shards,
// /fleet/history, /fleet/log and /fleet/push, plus /metrics (with the
// merged fleet_* series) and /healthz. With -listen, an agent or sim serves
// its own stats surface and /metrics for scraping (an agent also serves the
// per-interval feed: /watch and /disks/<vm>/<disk>/series); its data
// reaches the aggregator only by push.
//
// The aggregator shards its host space by consistent name hash (-shards)
// and memoizes per-shard merges; agents push interval deltas once a full
// push has been acknowledged, heartbeats while nothing changes, and resync
// automatically across aggregator restarts.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vscsistats"
)

func main() {
	var (
		mode   = flag.String("mode", "", "aggregator, agent or sim")
		listen = flag.String("listen", "", "HTTP listen address (aggregator default :9108; agent/sim serve their stats surface when set)")

		// Aggregator flags.
		stale     = flag.Duration("stale", 6*time.Second, "aggregator: mark a host stale after this silence")
		shards    = flag.Int("shards", 0, "aggregator: shard count for the host space (0 = default 16)")
		dataDir   = flag.String("data-dir", "", "aggregator: persist ingested state to a segment log here and replay it on boot (empty = memory-only)")
		retention = flag.Duration("retention", 0, "aggregator: drop log segments older than this (0 = keep everything; requires -data-dir)")
		catalog   = flag.Bool("catalog", false, "aggregator: build the fleet-personality reference catalog (from -seed) and serve /fleet/catalog")

		// Federation flags: a mid-tier aggregator re-exports its merged
		// state to a parent aggregator through the same push protocol it
		// ingests, so trees (agents → region → global) compose freely.
		upstream         = flag.String("upstream", "", "aggregator: re-export merged state to this parent push URL (e.g. http://global:9108/fleet/push)")
		region           = flag.String("region", "", "aggregator: name this tier reports upstream as (default: hostname; requires -upstream)")
		reexportInterval = flag.Duration("reexport-interval", 2*time.Second, "aggregator: re-export period (also the upstream staleness horizon)")

		// Shared simulation flags (agent and sim modes; -seed also feeds
		// the aggregator's -catalog references).
		push     = flag.String("push", "", "aggregator push URL, e.g. http://aggr:9108/fleet/push")
		interval = flag.Duration("interval", 2*time.Second, "push interval per agent")
		seed     = flag.Int64("seed", 1, "master simulation seed: every workload RNG derives from it")
		speed    = flag.Int("speed", 1, "virtual seconds simulated per wall second")
		duration = flag.Duration("duration", 0, "stop after this wall-clock time (0 = run until interrupted)")

		// Agent flags.
		host     = flag.String("host", "", "agent: host name reported to the aggregator (default: hostname)")
		workload = flag.String("workload", "iometer-8k-rand", "agent: scenario to simulate (see vscsistats -list)")

		// Sim flags.
		simHosts   = flag.Int("hosts", 64, "sim: simulated host count")
		vmsPerHost = flag.Int("vms-per-host", 8, "sim: VMs per simulated host")
		disksPerVM = flag.Int("disks-per-vm", 1, "sim: virtual disks per VM")
		intensity  = flag.Float64("intensity", 1, "sim: global intensity multiplier on the heavy-tailed per-VM draws")
		workers    = flag.Int("workers", 0, "sim: goroutines hosts are multiplexed onto (0 = GOMAXPROCS)")
	)
	flag.Parse()

	var err error
	switch *mode {
	case "aggregator":
		err = runAggregator(*listen, *stale, *shards, *dataDir, *retention, *catalog, *seed,
			*upstream, *region, *reexportInterval)
	case "agent":
		err = runAgent(*listen, *host, *push, *interval, *workload, *seed, *speed, *duration)
	case "sim":
		err = runSim(*listen, *push, *interval, *seed, *speed, *duration,
			*simHosts, *vmsPerHost, *disksPerVM, *intensity, *workers)
	default:
		err = fmt.Errorf("vscsifleet: -mode must be aggregator, agent or sim")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runAggregator(listen string, stale time.Duration, shards int, dataDir string, retention time.Duration, catalog bool, seed int64, upstream, region string, reexportInterval time.Duration) error {
	if listen == "" {
		listen = ":9108"
	}
	obs := vscsistats.NewFleetObsTracker(vscsistats.FleetObsConfig{})
	agg, replay, err := vscsistats.OpenFleetAggregator(vscsistats.FleetAggregatorConfig{
		StaleAfter: stale, Shards: shards, DataDir: dataDir, Retention: retention, Obs: obs,
	})
	if err != nil {
		return err
	}
	defer agg.Close()
	if catalog {
		cat, err := vscsistats.SimReferenceCatalog(seed)
		if err != nil {
			return err
		}
		agg.SetCatalog(cat)
		fmt.Fprintf(os.Stderr, "reference catalog (seed %d): %s\n", seed, strings.Join(cat.Names(), ", "))
	}
	if dataDir != "" {
		fmt.Fprintf(os.Stderr, "segment log %s: replayed %d frames (%d hosts, %d skipped, %d torn tails) in %s\n",
			dataDir, replay.Frames, replay.Hosts, replay.Skipped, replay.TornTails, replay.Duration.Round(time.Millisecond))
	}
	var rex *vscsistats.FleetReExporter
	if upstream != "" {
		if region == "" {
			region, _ = os.Hostname()
			if region == "" {
				region = "region"
			}
		}
		rex = vscsistats.NewFleetReExporter(agg, vscsistats.FleetReExporterConfig{
			Region: region, Upstream: upstream, Interval: reexportInterval, Obs: obs,
		})
		rex.Start()
		defer rex.Stop()
		fmt.Fprintf(os.Stderr, "re-exporting as %q to %s every %s\n", region, upstream, reexportInterval)
	}

	// The aggregator has no local disks; its registry exists so the stats
	// surface (and /healthz) comes up uniform with every other node.
	reg := vscsistats.NewRegistry()
	metrics := vscsistats.NewMetricsExporter(reg).With(agg, obs)
	if rex != nil {
		metrics.With(rex)
	}
	handler := vscsistats.NewStatsHandlerWith(reg, vscsistats.StatsOptions{
		Metrics: metrics,
		Fleet:   agg,
		Trace:   obs.ChromeTraceHandler(),
	})
	fmt.Fprintf(os.Stderr, "aggregator on %s (%d shards; /fleet/hosts, /fleet/snapshot, /fleet/shards, /fleet/history, /fleet/catalog, /fleet/log, /fleet/events, /fleet/slow, /fleet/push, /metrics, /debug/trace, /healthz; stale after %s)\n",
		listen, agg.NumShards(), stale)

	// Serve until SIGINT/SIGTERM, then close the segment log so the final
	// fsync lands before exit — a signal must not look like a crash.
	srv := &http.Server{Addr: listen, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "aggregator: %s: syncing segment log and shutting down\n", sig)
		srv.Close()
		return agg.Close()
	}
}

func runAgent(listen, host, push string, interval time.Duration, workload string, seed int64, speed int, duration time.Duration) error {
	if host == "" {
		host, _ = os.Hostname()
		if host == "" {
			host = "host"
		}
	}
	if speed < 1 {
		speed = 1
	}
	sc, err := vscsistats.NewScenario(workload, vscsistats.ScenarioConfig{Seed: seed})
	if err != nil {
		return err
	}
	sc.Gen.Start()
	sc.Eng.RunUntil(sc.Warmup)
	sc.VD.Collector.Enable()
	reg := sc.Host.Registry()

	obs := vscsistats.NewFleetObsTracker(vscsistats.FleetObsConfig{})
	agent := vscsistats.NewFleetAgent(reg, vscsistats.FleetAgentConfig{
		Host: host, Endpoint: push, Interval: interval, Obs: obs,
	})
	if push != "" {
		agent.Start()
		defer agent.Stop()
	}
	if listen != "" {
		// The run is wall-paced, so the interval feed (/watch and the
		// per-disk /series) samples the registry once per push interval.
		streamer := vscsistats.NewSnapshotStreamer(reg, interval, 300)
		streamer.Start()
		defer streamer.Stop()
		handler := vscsistats.NewStatsHandlerWith(reg, vscsistats.StatsOptions{
			Metrics: vscsistats.NewMetricsExporter(reg).WithDiskStats(sc.Host).With(agent, obs),
			Trace:   obs.ChromeTraceHandler(),
			Series:  streamer,
		})
		ln, err := net.Listen("tcp", listen) // a taken port fails the run
		if err != nil {
			return err
		}
		go http.Serve(ln, handler)
		fmt.Fprintf(os.Stderr, "agent %s stats on %s\n", host, listen)
	}
	fmt.Fprintf(os.Stderr, "agent %s simulating %s at %dx realtime, pushing to %s every %s\n",
		host, workload, speed, orNone(push), interval)

	// Advance virtual time in wall-paced steps so the histograms keep
	// accumulating while the agent pushes from its own goroutine. A
	// SIGINT/SIGTERM ends the run like -duration does: one final push
	// drains the queue before exit.
	var stop <-chan time.Time
	if duration > 0 {
		stop = time.After(duration)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	now := sc.Eng.Now()
	for {
		select {
		case <-tick.C:
			now += vscsistats.Time(speed) * vscsistats.Second
			sc.Eng.RunUntil(now)
			continue
		case <-stop:
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "agent %s: %s: draining final push\n", host, sig)
		}
		if push != "" {
			agent.PushNow()
			agent.Stop()
			st := agent.Stats()
			fmt.Fprintf(os.Stderr, "agent %s done: %d pushes (%d deltas, %d resyncs), %d errors, %d dropped\n",
				host, st.Pushes, st.DeltaPushes, st.Resyncs, st.Errors, st.Dropped)
		}
		return nil
	}
}

// runSim generates a deterministic synthetic datacenter from seed and
// runs every host wall-paced at -speed, each pushing through a real fleet
// agent. Status lines report the achieved multiplier so a CPU-bound run
// is visible rather than silently behind.
func runSim(listen, push string, interval time.Duration, seed int64, speed int, duration time.Duration, hosts, vmsPerHost, disksPerVM int, intensity float64, workers int) error {
	if speed < 1 {
		speed = 1
	}
	inv := vscsistats.NewSimInventory(vscsistats.SimInventoryConfig{
		Seed: seed, Hosts: hosts, VMsPerHost: vmsPerHost, DisksPerVM: disksPerVM, Intensity: intensity,
	})
	build := time.Now()
	sim, err := vscsistats.NewDatacenterSim(inv, vscsistats.DatacenterSimConfig{
		Push: push, PushInterval: interval, Speed: float64(speed),
		Workers: workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sim: %d hosts × %d VMs × %d disks (seed %d) built in %s; mix %v\n",
		hosts, vmsPerHost, disksPerVM, seed, time.Since(build).Round(time.Millisecond), inv.PersonalityMix())
	if listen != "" {
		// The sim has no registry of its own to serve — its collectors live
		// inside the per-host worlds — but /metrics with the vscsim_* series
		// makes the world's size, pacing and push health scrapable.
		reg := vscsistats.NewRegistry()
		handler := vscsistats.NewStatsHandlerWith(reg, vscsistats.StatsOptions{
			Metrics: vscsistats.NewMetricsExporter(reg).With(sim),
		})
		ln, err := net.Listen("tcp", listen) // a taken port fails the run
		if err != nil {
			return err
		}
		go http.Serve(ln, handler)
		fmt.Fprintf(os.Stderr, "sim: metrics on %s\n", listen)
	}
	fmt.Fprintf(os.Stderr, "sim: running at %dx realtime, pushing to %s every %s\n",
		speed, orNone(push), interval)

	sim.Start()
	var stop <-chan time.Time
	if duration > 0 {
		stop = time.After(duration)
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	status := time.NewTicker(5 * time.Second)
	defer status.Stop()
	for {
		select {
		case <-status.C:
			st := sim.Stats()
			fmt.Fprintf(os.Stderr, "sim: virtual %s (%.1fx), %d ops, %d pushes (%d errors), %d throttled\n",
				st.Virtual.Round(time.Second), st.Speed, st.Ops, st.Agent.Pushes, st.Agent.Errors, st.Throttled)
			continue
		case <-stop:
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "sim: %s: stopping (each agent drains a final push)\n", sig)
		}
		sim.Stop()
		st := sim.Stats()
		fmt.Fprintf(os.Stderr, "sim done: %d hosts, virtual %s in wall %s (%.1fx), %d ops (%d errors), %d pushes (%d deltas, %d push errors, %d resyncs)\n",
			st.Hosts, st.Virtual.Round(time.Second), st.Wall.Round(time.Second), st.Speed,
			st.Ops, st.Errors, st.Agent.Pushes, st.Agent.DeltaPushes, st.Agent.Errors, st.Agent.Resyncs)
		return nil
	}
}

func orNone(s string) string {
	if s == "" {
		return "(nowhere)"
	}
	return s
}
