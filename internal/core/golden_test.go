package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"testing"
)

// goldenSnapshots is the fixed input of testdata/snapshot_golden.json: one
// collector snapshot and the Sub delta against an earlier one.
func goldenSnapshots() []*Snapshot {
	rng := rand.New(rand.NewSource(22))
	col := NewCollector("golden-vm", "scsi0:0")
	col.Enable()
	drive(col, randRequests(rng, 400))
	earlier := col.Snapshot()
	drive(col, randRequests(rng, 250))
	later := col.Snapshot()
	return []*Snapshot{later, later.Sub(earlier)}
}

// TestSnapshotJSONGolden pins the JSON form every HTTP body and legacy frame
// carries. The golden file is json.Marshal of goldenSnapshots at 0590e06,
// when Snapshot was sixteen exported histogram fields marshalled by
// reflection: the cell vector must render the same bytes and read them back
// to the same state.
func TestSnapshotJSONGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	snaps := goldenSnapshots()
	got, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("json.Marshal differs from the golden file (%d bytes, want %d)", len(got), len(want))
	}
	var back []*Snapshot
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(snaps) {
		t.Fatalf("golden file holds %d snapshots, want %d", len(back), len(snaps))
	}
	for i, s := range snaps {
		if back[i].VM != s.VM || back[i].Disk != s.Disk || !back[i].StateEquals(s) {
			t.Errorf("snapshot %d: decoded golden differs:\n%s", i, snapshotDiff(back[i].jsonForm(), s.jsonForm()))
		}
	}
}
