// Parallel multi-VM characterization: eight independent VM worlds — each
// with its own datastore and an 8 KB random-read Iometer — advanced across
// CPU cores by the parallel simulation driver, while their collectors pool
// into one registry behind a single (optional) HTTP stats endpoint.
//
// This is the embarrassingly parallel consolidation case; VMs that contend
// on one shared array (Figure 6, `cmd/experiments -run fig6`) still run on a
// single engine.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"vscsistats"
)

const worlds = 8

func build() *vscsistats.ParallelSim {
	return vscsistats.NewParallelSim(worlds, func(w *vscsistats.SimWorld) {
		w.Host.AddDatastore("ds", vscsistats.LocalDisk(int64(w.Index)+1))
		vd, err := w.Host.CreateVM(fmt.Sprintf("vm%d", w.Index)).AddDisk(vscsistats.DiskSpec{
			Name: "scsi0:0", Datastore: "ds", CapacitySectors: 1 << 21,
		})
		if err != nil {
			log.Fatal(err)
		}
		vd.Collector.Enable()
		spec := vscsistats.EightKRandomRead()
		spec.Seed = int64(w.Index) + 100
		gen := vscsistats.NewIometer(w.Engine, vd.Disk, spec)
		w.Engine.At(0, func(vscsistats.Time) { gen.Start() })
	})
}

func main() {
	const horizon = 5 * vscsistats.Second

	t0 := time.Now()
	seq := build()
	seq.RunSequential(horizon)
	seqWall := time.Since(t0)

	t0 = time.Now()
	par := build()
	par.RunUntil(horizon)
	parWall := time.Since(t0)

	fmt.Printf("%d worlds x %v virtual on %d CPUs:\n", worlds, horizon, runtime.NumCPU())
	fmt.Printf("  sequential driver: %v\n", seqWall)
	fmt.Printf("  parallel driver:   %v  (%.2fx)\n", parWall, float64(seqWall)/float64(parWall))

	// Same worlds, same seeds => same characterization, whichever driver ran.
	fmt.Println("\nPer-VM characterization (shared registry):")
	for _, s := range par.Registry().Snapshots() {
		fmt.Printf("  %-5s %-8s %6d cmds, %3.0f%% reads, mean latency %.0f us\n",
			s.VM, s.Disk, s.Commands, 100*s.ReadFraction(),
			s.Histogram(vscsistats.MetricLatency, vscsistats.All).Mean())
	}

	// The pooled registry serves one control plane for every world:
	// srv := http.ListenAndServe(":8080", vscsistats.NewStatsHandler(par.Registry()))
	fmt.Println("\nesxtop view across all worlds:")
	fmt.Print(par.Top())
}
