// Filebench OLTP on UFS vs ZFS: reproduces the paper's §4.1 headline — the
// same database workload produces a radically different disk workload
// depending on the filesystem, because ZFS's copy-on-write turns random
// application writes into large sequential device writes.
package main

import (
	"fmt"
	"log"

	"vscsistats"
)

func run(name string, mkFS func(*vscsistats.Engine, *vscsistats.Disk) vscsistats.FS) *vscsistats.Snapshot {
	eng := vscsistats.NewEngine()
	host := vscsistats.NewHost(eng)
	host.AddDatastore("sym", vscsistats.Symmetrix(1))
	vd, err := host.CreateVM("solaris").AddDisk(vscsistats.DiskSpec{
		Name: "scsi0:0", Datastore: "sym", CapacitySectors: 16 << 21, // 16 GB
	})
	if err != nil {
		log.Fatal(err)
	}
	fsys := mkFS(eng, vd.Disk)

	// The paper's parameters, scaled: "total filesize is 10GB, logfilesize
	// is 1GB" becomes 2 GB / 200 MB to keep the demo fast.
	model := vscsistats.OLTPModel(2<<30, 200<<20)
	fb := vscsistats.NewFilebench(eng, fsys, model, 7)
	if err := fb.Setup(); err != nil {
		log.Fatal(err)
	}
	fb.Start()
	eng.RunUntil(10 * vscsistats.Second) // warm up
	vd.Collector.Enable()
	eng.RunUntil(70 * vscsistats.Second) // measure 60 s
	fb.Stop()

	s := vd.Collector.Snapshot()
	fmt.Printf("\n================ Filebench OLTP on %s ================\n", name)
	fmt.Println(s.Histogram(vscsistats.MetricIOLength, vscsistats.All).Render(46))
	fmt.Println(s.Histogram(vscsistats.MetricSeekDistance, vscsistats.Writes).Render(46))
	fmt.Println(s.Histogram(vscsistats.MetricSeekDistance, vscsistats.Reads).Render(46))
	fmt.Println(vscsistats.FingerprintOf(s).Report())
	return s
}

func main() {
	ufs := run("UFS", vscsistats.NewUFS)
	zfs := run("ZFS", vscsistats.NewZFS)

	fmt.Println("================ Comparison ================")
	fmt.Printf("UFS: %d commands, mean I/O %.0f bytes\n",
		ufs.Commands, ufs.Histogram(vscsistats.MetricIOLength, vscsistats.All).Mean())
	fmt.Printf("ZFS: %d commands, mean I/O %.0f bytes\n",
		zfs.Commands, zfs.Histogram(vscsistats.MetricIOLength, vscsistats.All).Mean())
	fmt.Println("ZFS issues far larger I/Os (record-sized, 80-128 KB) and its")
	fmt.Println("writes are sequential on disk despite the random workload (COW),")
	fmt.Println("matching the paper's Figures 2 and 3.")
}
