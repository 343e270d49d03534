// Multi-VM interference (§5.3 / Figure 6): an 8 KB sequential reader and an
// 8 KB random reader on separate virtual disks of the same cache-disabled
// array. The environment-dependent metrics (latency, inter-arrival) shift
// dramatically for the sequential reader; the environment-independent ones
// (size, seek distance, OIO) do not — the paper's §3.7 distinction.
package main

import (
	"fmt"
	"log"

	"vscsistats"
)

const diskSectors = 6 << 21 // 6 GB virtual disks, as in the paper

func provision(host *vscsistats.Host, vm string) *vscsistats.Vdisk {
	vd, err := host.CreateVM(vm).AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "cx3", CapacitySectors: diskSectors,
	})
	if err != nil {
		log.Fatal(err)
	}
	vd.Collector.Enable()
	return vd
}

func main() {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	// "we had to turn off the CX3 read cache forcing all I/Os to hit the
	// disk ... the extreme worst case for this workload combination."
	host.AddDatastore("cx3", vscsistats.CX3NoCache(1))

	seqVD := provision(host, "seq-vm")
	randVD := provision(host, "rand-vm")

	seq := vscsistats.NewIometer(eng, seqVD.Disk, vscsistats.EightKSeqRead())
	random := vscsistats.NewIometer(eng, randVD.Disk, vscsistats.EightKRandomRead())

	// The sequential reader runs for 90 s; the random reader runs only
	// during the middle 30 s, shifting the latency histogram (Figure 6(c)).
	rec := vscsistats.NewIntervalRecorder(eng, seqVD.Collector, 6*vscsistats.Second)
	seq.Start()
	eng.At(30*vscsistats.Second, func(vscsistats.Time) { random.Start() })
	eng.At(60*vscsistats.Second, func(vscsistats.Time) { random.Stop() })
	eng.RunUntil(90 * vscsistats.Second)
	rec.Stop()
	seq.Stop()

	fmt.Println("Sequential reader latency histogram over time (6 s intervals):")
	fmt.Println("(the random VM is active during intervals S6-S10)")
	fmt.Println(rec.Series(vscsistats.MetricLatency, vscsistats.All).String())

	var soloLat, dualLat, soloCmds, dualCmds int64
	for i, s := range rec.Intervals {
		h := s.Histogram(vscsistats.MetricLatency, vscsistats.All)
		if i >= 5 && i < 10 {
			dualLat += h.Sum
			dualCmds += h.Total
		} else {
			soloLat += h.Sum
			soloCmds += h.Total
		}
	}
	if soloCmds > 0 && dualCmds > 0 {
		solo := float64(soloLat) / float64(soloCmds)
		dual := float64(dualLat) / float64(dualCmds)
		fmt.Printf("sequential reader: solo %.0f us -> dual %.0f us (%.0fx latency)\n",
			solo, dual, dual/solo)
		fmt.Printf("IOps during interference: %.0f%% of solo rate\n",
			100*float64(dualCmds)/5/(float64(soloCmds)/float64(len(rec.Intervals)-5)))
	}

	s := seqVD.Collector.Snapshot()
	fmt.Println("\nDevice-independent metrics are unaffected (§3.7):")
	fmt.Println(s.Histogram(vscsistats.MetricIOLength, vscsistats.All).Render(40))
	fmt.Println(s.Histogram(vscsistats.MetricSeekDistance, vscsistats.All).Render(40))
}
