package analysis

import (
	"strings"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// snapshotOf drives a disk with gen and returns the collected snapshot.
func snapshotOf(t *testing.T, seed int64, issue func(d *vscsi.Disk, rng func(int64) int64)) *core.Snapshot {
	t.Helper()
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(simclock.Millisecond, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 26})
	col := core.NewCollector("v", "d")
	col.Enable()
	d.AddObserver(col)
	r := simclock.NewRand(seed)
	issue(d, r.Int63n)
	eng.Run()
	return col.Snapshot()
}

func randomRead8K(d *vscsi.Disk, rng func(int64) int64) {
	for i := 0; i < 500; i++ {
		d.Issue(scsi.Read(uint64(rng(1<<25))*16, 16), nil)
	}
}

func seqRead64K(d *vscsi.Disk, rng func(int64) int64) {
	for i := 0; i < 500; i++ {
		d.Issue(scsi.Read(uint64(i*128), 128), nil)
	}
}

func randomWrite4K(d *vscsi.Disk, rng func(int64) int64) {
	for i := 0; i < 500; i++ {
		d.Issue(scsi.Write(uint64(rng(1<<25))*8, 8), nil)
	}
}

func TestCatalogClassifiesNearestWorkload(t *testing.T) {
	catalog, err := NewCatalog(
		Reference{"oltp-like", snapshotOf(t, 1, randomRead8K)},
		Reference{"stream-like", snapshotOf(t, 2, seqRead64K)},
		Reference{"logger-like", snapshotOf(t, 3, randomWrite4K)},
	)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh random-8K-read run (different seed) must match "oltp-like".
	probe := snapshotOf(t, 42, randomRead8K)
	matches, err := catalog.Classify(probe)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Name != "oltp-like" {
		t.Fatalf("classified as %v", matches)
	}
	if matches[0].Score >= matches[1].Score {
		t.Errorf("ranking not strict: %v", matches)
	}
	// A sequential probe must match the stream reference.
	probe2 := snapshotOf(t, 43, seqRead64K)
	matches2, _ := catalog.Classify(probe2)
	if matches2[0].Name != "stream-like" {
		t.Fatalf("sequential probe classified as %v", matches2)
	}
	// Component breakdown is present and bounded.
	for _, m := range matches {
		for k, v := range m.Components {
			if v < 0 || v > 1 {
				t.Errorf("component %s = %v out of range", k, v)
			}
		}
	}
}

func TestCatalogReportAndErrors(t *testing.T) {
	catalog, _ := NewCatalog(Reference{"w", snapshotOf(t, 1, randomWrite4K)})
	rep, err := catalog.Report(snapshotOf(t, 2, randomWrite4K))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "closest reference workload: w") {
		t.Errorf("report:\n%s", rep)
	}
	if !strings.Contains(rep, "fingerprint:") {
		t.Errorf("report missing fingerprint:\n%s", rep)
	}
	if _, err := catalog.Classify(nil); err == nil {
		t.Error("nil probe should fail")
	}
	empty := core.NewCollector("v", "d")
	empty.Enable()
	if _, err := NewCatalog(Reference{"bad", empty.Snapshot()}); err == nil {
		t.Error("empty reference should fail")
	}
	if err := catalog.Add("bad", nil); err == nil {
		t.Error("nil Add should fail")
	}
	if err := catalog.Add("more", snapshotOf(t, 5, seqRead64K)); err != nil {
		t.Error(err)
	}
}
