package vscsi_test

import (
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// TestIssueAllocatesNothing is the paper's Table 2 path as a count: a
// command through Disk.Issue, an enabled collector and a backend that
// completes at once costs no heap object once the disk has its Request.
func TestIssueAllocatesNothing(t *testing.T) {
	backend := vscsi.BackendFunc(func(_ *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := vscsi.NewDisk(simclock.NewEngine(), backend, vscsi.DiskConfig{
		VM: "vm", Name: "scsi0:0", CapacitySectors: 1 << 30,
	})
	col := core.NewCollector("vm", "scsi0:0")
	col.Enable()
	d.AddObserver(col)
	cmd := scsi.Read(0, 8)
	issue := func() {
		cmd.LBA = (cmd.LBA + 8) % (1 << 29)
		if _, err := d.Issue(cmd, nil); err != nil {
			t.Fatal(err)
		}
	}
	issue()
	if avg := testing.AllocsPerRun(1000, issue); avg != 0 {
		t.Fatalf("Disk.Issue with stats on allocates %v objects per command, want 0", avg)
	}
	if got := col.Snapshot().Commands; got < 1000 {
		t.Fatalf("collector saw %d commands", got)
	}
}
