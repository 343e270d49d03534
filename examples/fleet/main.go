// Fleet federation end to end: four simulated hosts each run their own
// engine, workload and registry; a fleet agent on each pushes snapshots to
// one aggregator, which serves the merged cluster view over HTTP. Midway
// through, one agent is killed. The aggregator never errors: the dead host
// simply ages past the staleness horizon and drops out of the merge, and
// the cluster histogram becomes the bin-exact sum of the three survivors —
// the graceful-degradation property the whole design leans on.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"vscsistats"
)

const (
	hosts        = 4
	pushInterval = 100 * time.Millisecond
	staleAfter   = 400 * time.Millisecond
)

// simHost is one simulated "ESX host": engine, host, workload, agent.
type simHost struct {
	name  string
	eng   *vscsistats.Engine
	reg   *vscsistats.Registry
	agent *vscsistats.FleetAgent
}

func main() {
	// The aggregator and its HTTP surface, up front so agents have a target.
	agg := vscsistats.NewFleetAggregator(vscsistats.FleetAggregatorConfig{StaleAfter: staleAfter})
	reg := vscsistats.NewRegistry() // the aggregator node has no local disks
	handler := vscsistats.NewStatsHandlerWith(reg, vscsistats.StatsOptions{
		Metrics: vscsistats.NewMetricsExporter(reg).With(agg),
		Fleet:   agg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("aggregator on %s (stale after %s)\n", base, staleAfter)

	// Four hosts, each fully independent: own engine, datastore, VM,
	// workload — and a fleet agent pushing its registry.
	sims := make([]*simHost, hosts)
	for i := range sims {
		eng := vscsistats.NewEngine()
		h := vscsistats.NewHost(eng)
		h.AddDatastore("ds", vscsistats.LocalDisk(int64(i)+1))
		vd, err := h.CreateVM(fmt.Sprintf("vm%d", i)).AddDisk(vscsistats.DiskSpec{
			Name: "scsi0:0", Datastore: "ds", CapacitySectors: 1 << 21,
		})
		if err != nil {
			log.Fatal(err)
		}
		vd.Collector.Enable()
		spec := vscsistats.EightKRandomRead()
		spec.Seed = int64(i) + 7
		gen := vscsistats.NewIometer(eng, vd.Disk, spec)
		eng.At(0, func(vscsistats.Time) { gen.Start() })

		name := fmt.Sprintf("esx-%02d", i)
		sims[i] = &simHost{
			name: name, eng: eng, reg: h.Registry(),
			agent: vscsistats.NewFleetAgent(h.Registry(), vscsistats.FleetAgentConfig{
				Host: name, Endpoint: base + "/fleet/push", Interval: pushInterval,
			}),
		}
		sims[i].agent.Start()
	}

	// Wall-paced simulation: every 25 ms of wall time advances each world
	// 100 ms of virtual time, while the agents push concurrently.
	stopSim := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sims {
		wg.Add(1)
		go func(s *simHost) {
			defer wg.Done()
			t := time.NewTicker(25 * time.Millisecond)
			defer t.Stop()
			now := vscsistats.Time(0)
			for {
				select {
				case <-stopSim:
					return
				case <-t.C:
					now += 100 * vscsistats.Millisecond
					s.eng.RunUntil(now)
				}
			}
		}(s)
	}

	time.Sleep(6 * pushInterval)
	fmt.Printf("\nall %d hosts reporting:\n", hosts)
	printHosts(base)

	// Kill one agent mid-run: its host keeps simulating, but nothing
	// reaches the aggregator anymore — exactly what a crashed or
	// partitioned host looks like from the control plane.
	victim := sims[1]
	victim.agent.Stop()
	fmt.Printf("\nkilled the fleet agent on %s; waiting out the staleness horizon...\n", victim.name)
	time.Sleep(staleAfter + 3*pushInterval)

	// Freeze the world and flush the survivors, so the aggregator's view
	// and the hosts' registries can be compared exactly.
	close(stopSim)
	wg.Wait()
	var survivors []*vscsistats.Snapshot
	for _, s := range sims {
		if s == victim {
			continue
		}
		if err := s.agent.PushNow(); err != nil {
			log.Fatalf("final push from %s: %v", s.name, err)
		}
		survivors = append(survivors, s.reg.Snapshots()...)
		s.agent.Stop()
	}

	printHosts(base)

	// The merged cluster view must equal the survivors' sum, bin for bin.
	var cluster vscsistats.Snapshot
	getJSON(base+"/fleet/snapshot", &cluster)
	want := vscsistats.AggregateSnapshots("cluster", "*", survivors...)
	fmt.Printf("\ncluster after the kill: %d commands across %d surviving hosts (want %d)\n",
		cluster.Commands, len(survivors), want.Commands)
	exact := cluster.Commands == want.Commands
	for _, m := range []vscsistats.Metric{
		vscsistats.MetricIOLength, vscsistats.MetricSeekDistance, vscsistats.MetricLatency,
	} {
		got, expect := cluster.Histogram(m, vscsistats.All), want.Histogram(m, vscsistats.All)
		for i := range expect.Counts {
			if got.Counts[i] != expect.Counts[i] {
				exact = false
			}
		}
	}
	fmt.Printf("cluster histograms bin-exact against the 3 survivors: %v\n", exact)

	// And the dead host's data is still there — just flagged stale and
	// excluded; ?include_stale=1 folds it back in for post-mortems.
	var all vscsistats.Snapshot
	getJSON(base+"/fleet/snapshot?include_stale=1", &all)
	fmt.Printf("with include_stale=1 the view regains %s: %d commands (> %d)\n",
		victim.name, all.Commands, cluster.Commands)
}

func printHosts(base string) {
	var hosts []vscsistats.FleetHostStatus
	getJSON(base+"/fleet/hosts", &hosts)
	for _, h := range hosts {
		state := "fresh"
		if h.Stale {
			state = "STALE"
		}
		fmt.Printf("  %-8s %-5s seq=%-3d batches=%-3d disks=%d age=%.2fs\n",
			h.Host, state, h.Seq, h.Batches, h.Snapshots, h.AgeSeconds)
	}
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}
