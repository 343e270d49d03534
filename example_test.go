package vscsistats_test

import (
	"fmt"

	"vscsistats"
	"vscsistats/internal/fs"
	"vscsistats/internal/scsi"
	"vscsistats/internal/storage"
	"vscsistats/internal/workload"
)

// Example_characterize shows the core loop: drive a virtual disk and read
// back the histograms. The simulation is deterministic, so this output is
// exact.
func Example_characterize() {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("local", storage.LocalDiskConfig(1))
	vd, err := host.CreateVM("guest").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "local", CapacitySectors: 1 << 22,
	})
	if err != nil {
		panic(err)
	}
	vd.Collector.Enable()

	// Eight sequential 4 KB reads.
	for i := uint64(0); i < 8; i++ {
		if _, err := vd.Disk.Issue(scsi.Read(i*8, 8), nil); err != nil {
			panic(err)
		}
	}
	eng.Run()

	s := vd.Collector.Snapshot()
	fmt.Printf("commands: %d\n", s.Commands)
	length := s.Histogram(vscsistats.MetricIOLength, vscsistats.All)
	fmt.Printf("all 4K: %v\n", length.Min == 4096 && length.Max == 4096)
	seeks := s.Histogram(vscsistats.MetricSeekDistance, vscsistats.All)
	fmt.Printf("sequential seeks: %d of %d at distance 1\n", seeks.Counts[9], seeks.Total)
	// Output:
	// commands: 8
	// all 4K: true
	// sequential seeks: 7 of 7 at distance 1
}

// Example_fingerprint classifies a workload from its histograms alone.
func Example_fingerprint() {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("local", storage.LocalDiskConfig(2))
	vd, _ := host.CreateVM("guest").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "local", CapacitySectors: 1 << 24,
	})
	vd.Collector.Enable()
	gen := vscsistats.NewIometer(eng, vd.Disk, workload.EightKSeqRead())
	gen.Start()
	eng.RunUntil(2 * vscsistats.Second)
	gen.Stop()

	f := vscsistats.FingerprintOf(vd.Collector.Snapshot())
	fmt.Printf("%s, %.0f%% reads, dominant %d bytes\n",
		f.AccessPattern, 100*f.ReadFraction, f.DominantIOBytes)
	// Output:
	// sequential, 100% reads, dominant 8192 bytes
}

// Example_model runs a hand-written Filebench-style model.
func Example_model() {
	model, err := workload.ParseModel(`
define file name=data,size=8m
define process name=app {
  thread name=t,instances=2 {
    flowop read name=r,file=data,iosize=4k,random
    flowop delay name=think,value=10ms
  }
}
`)
	if err != nil {
		panic(err)
	}
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("local", storage.LocalDiskConfig(3))
	vd, _ := host.CreateVM("guest").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "local", CapacitySectors: 1 << 22,
	})
	vd.Collector.Enable()
	fb := workload.NewFilebench(eng, fs.NewPlain(eng, vd.Disk, fs.UFSConfig()), model, 4)
	if err := fb.Setup(); err != nil {
		panic(err)
	}
	fb.Start()
	eng.RunUntil(1 * vscsistats.Second)
	fb.Stop()
	fmt.Printf("two 10ms-paced threads for 1s: %v\n",
		fb.Stats().Ops >= 100 && fb.Stats().Ops <= 200)
	// Output:
	// two 10ms-paced threads for 1s: true
}
