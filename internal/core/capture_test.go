package core

import (
	"math/rand"
	"slices"
	"testing"
)

// sameCells reports whether two snapshots agree on their names, every
// counter and every cell.
func sameCells(a, b *Snapshot) bool {
	return a.VM == b.VM && a.Disk == b.Disk && a.StateEquals(b)
}

// TestSubIntoMatchesSubAndStateEquals is the property the fleet sender's one
// pass rests on: SubInto writes exactly what Sub returns, into a dirty
// destination too, and reports exactly what StateEquals decides — across a
// Reset (the delta's cells go negative), for equal states, and when only an
// extremum differs.
func TestSubIntoMatchesSubAndStateEquals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := new(Snapshot) // reused dirty across every check
	check := func(trial int, what string, later, earlier *Snapshot) {
		t.Helper()
		same := later.SubInto(dst, earlier)
		if want := later.StateEquals(earlier); same != want {
			t.Fatalf("trial %d, %s: SubInto reports same=%t, StateEquals %t", trial, what, same, want)
		}
		if !sameCells(dst, later.Sub(earlier)) {
			t.Fatalf("trial %d, %s: SubInto wrote other cells than Sub", trial, what)
		}
	}
	for trial := range 30 {
		col := NewCollector("vm", "disk")
		col.Enable()
		deltaFeed(t, rng, col, 1+rng.Intn(200))
		earlier := col.Snapshot()
		check(trial, "equal states", col.Snapshot(), earlier)

		deltaFeed(t, rng, col, 1+rng.Intn(200))
		check(trial, "later state", col.Snapshot(), earlier)

		col.Reset()
		deltaFeed(t, rng, col, rng.Intn(20))
		check(trial, "across a reset", col.Snapshot(), earlier)

		// Only one extremum differs: every count, sum, total and counter
		// agree, so only the extrema cells can tell the states apart.
		moved := &Snapshot{VM: earlier.VM, Disk: earlier.Disk, Commands: earlier.Commands,
			NumReads: earlier.NumReads, NumWrites: earlier.NumWrites, ReadBytes: earlier.ReadBytes,
			WriteBytes: earlier.WriteBytes, Errors: earlier.Errors, cells: slices.Clone(earlier.cells)}
		h := cellTable[rng.Intn(numHistograms)].Of(moved.cells)
		h[len(h)-1-rng.Intn(2)]++
		check(trial, "one extremum moved", moved, earlier)
		if moved.SubInto(dst, earlier) {
			t.Fatalf("trial %d: a moved extremum reads as an unchanged disk", trial)
		}
	}
}

// TestCaptureIntoReusedMatchesFresh: capturing into a snapshot that holds
// another disk's state — every cell dirty, names and counters too — gives
// exactly what a fresh Snapshot gives, and a collector never enabled leaves
// the capture refused.
func TestCaptureIntoReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reused := new(Snapshot)
	for trial := range 20 {
		other := NewCollector("other-vm", "other-disk")
		other.Enable()
		deltaFeed(t, rng, other, 50+rng.Intn(300))
		if !other.CaptureInto(reused) {
			t.Fatal("an enabled collector refused the capture")
		}
		for i := range reused.cells {
			reused.cells[i] ^= rng.Int63() // dirt the capture must overwrite
		}

		col := NewCollector("vm", "disk")
		col.Enable()
		deltaFeed(t, rng, col, rng.Intn(100)) // may be empty: extrema read 0
		if !col.CaptureInto(reused) {
			t.Fatal("an enabled collector refused the capture")
		}
		if fresh := col.Snapshot(); !sameCells(reused, fresh) {
			t.Fatalf("trial %d: capture into a reused snapshot differs from a fresh one", trial)
		}
	}
	if NewCollector("vm", "idle").CaptureInto(reused) {
		t.Error("a never-enabled collector captured state")
	}

	// The registry form reuses the set it is handed, snapshots and array.
	reg := NewRegistry()
	for _, d := range []string{"a", "b", "c"} {
		col := NewCollector("vm", d)
		col.Enable()
		deltaFeed(t, rng, col, 40)
		reg.Register(col)
	}
	spare := reg.Snapshots()
	ptrs := slices.Clone(spare)
	got := reg.SnapshotsInto(spare[:2])
	if len(got) != 3 || got[0] != ptrs[0] || got[1] != ptrs[1] {
		t.Fatalf("SnapshotsInto did not capture into the snapshots it was handed")
	}
	for i, s := range reg.Snapshots() {
		if !sameCells(got[i], s) {
			t.Errorf("disk %d: reused capture differs from a fresh one", i)
		}
	}
}
