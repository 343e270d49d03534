// Large file copy on Windows XP vs Vista NTFS: reproduces §4.3 — the two
// OSes copy the same file through 64 KB vs 1 MB pipelines, so Vista issues
// far fewer, larger, longer-latency, more sequential commands (Figure 5).
package main

import (
	"fmt"
	"log"

	"vscsistats"
)

func run(name string, mkFS func(*vscsistats.Engine, *vscsistats.Disk) vscsistats.FS,
	cfg vscsistats.FileCopyConfig) *vscsistats.Snapshot {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("sym", vscsistats.Symmetrix(1))
	vd, err := host.CreateVM("windows").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "sym", CapacitySectors: 8 << 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	fc := vscsistats.NewFileCopy(eng, mkFS(eng, vd.Disk), cfg)
	if err := fc.Setup(); err != nil {
		log.Fatal(err)
	}
	vd.Collector.Enable()
	fc.Start()
	eng.RunUntil(10 * vscsistats.Second) // "10 sec duration", as in Figure 5
	fc.Stop()
	s := vd.Collector.Snapshot()
	fmt.Printf("\n================ %s file copy (10 s) ================\n", name)
	fmt.Println(s.Histogram(vscsistats.MetricIOLength, vscsistats.All).Render(46))
	fmt.Println(s.Histogram(vscsistats.MetricLatency, vscsistats.All).Render(46))
	fmt.Println(s.Histogram(vscsistats.MetricSeekDistance, vscsistats.All).Render(46))
	return s
}

func main() {
	const fileBytes = 512 << 20
	xp := run("Windows XP Pro (64 KB engine)", vscsistats.NewNTFSXP,
		vscsistats.XPCopy(fileBytes))
	vista := run("Windows Vista Enterprise (1 MB engine)", vscsistats.NewNTFSVista,
		vscsistats.VistaCopy(fileBytes))

	fmt.Println("================ Comparison (paper Figure 5) ================")
	fmt.Printf("%-28s %12s %12s\n", "", "XP Pro", "Vista")
	fmt.Printf("%-28s %12d %12d\n", "commands", xp.Commands, vista.Commands)
	fmt.Printf("%-28s %12.0f %12.0f\n", "mean I/O size (bytes)",
		xp.Histogram(vscsistats.MetricIOLength, vscsistats.All).Mean(), vista.Histogram(vscsistats.MetricIOLength, vscsistats.All).Mean())
	fmt.Printf("%-28s %12.0f %12.0f\n", "mean latency (us)",
		xp.Histogram(vscsistats.MetricLatency, vscsistats.All).Mean(), vista.Histogram(vscsistats.MetricLatency, vscsistats.All).Mean())
	fmt.Println("\nVista issues 1 MB I/Os: higher per-command latency, far fewer")
	fmt.Println("commands, and less seeking — exactly the paper's observation.")
}
