package core

import (
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// deltaFeed drives n randomized commands through col, exercising every
// histogram family (reads/writes, seeks both directions, queue depths,
// latencies, the occasional error).
func deltaFeed(t *testing.T, rng *rand.Rand, col *Collector, n int) {
	t.Helper()
	lba := uint64(rng.Intn(1 << 20))
	now := simclock.Time(rng.Intn(1000)) * simclock.Millisecond
	for i := 0; i < n; i++ {
		var cmd scsi.Command
		if rng.Intn(2) == 0 {
			cmd = scsi.Read(lba, uint32(1+rng.Intn(64)))
		} else {
			cmd = scsi.Write(lba, uint32(1+rng.Intn(64)))
		}
		r := &vscsi.Request{
			Cmd:                cmd,
			IssueTime:          now,
			CompleteTime:       now + simclock.Time(50+rng.Intn(3000))*simclock.Microsecond,
			OutstandingAtIssue: rng.Intn(32),
			Status:             scsi.StatusGood,
		}
		if rng.Intn(23) == 0 {
			r.Status = scsi.StatusCheckCondition
		}
		col.OnIssue(r)
		col.OnComplete(r)
		lba = uint64(int64(lba) + rng.Int63n(1<<16) - 1<<15)
		now += simclock.Time(rng.Intn(900)+10) * simclock.Microsecond
	}
}

// TestApplyDeltaReconstructsExactly is the randomized property test for the
// delta identity the fleet push protocol depends on: for any chain of
// snapshots s0, s1, ..., sk of one collector,
//
//	sk == s0.ApplyDelta(s1.Sub(s0)).ApplyDelta(s2.Sub(s1))...
//
// bin-exactly across all six metrics and all three classes — full state
// equals the sum of its deltas.
func TestApplyDeltaReconstructsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		col := NewCollector("vm", "disk")
		col.Enable()
		deltaFeed(t, rng, col, rng.Intn(300))
		state := col.Snapshot()
		prev := state
		for round := 0; round < 5; round++ {
			deltaFeed(t, rng, col, rng.Intn(200))
			cur := col.Snapshot()
			state = state.ApplyDelta(cur.Sub(prev))
			prev = cur
			if !state.StateEquals(cur) {
				t.Fatalf("trial %d round %d: delta-reassembled state diverged from the live snapshot", trial, round)
			}
		}
	}
}

// TestApplyDeltaEmptyIntervalIsIdentity pins the degenerate case: a delta
// between two identical snapshots reapplies to exactly the same state,
// extrema included.
func TestApplyDeltaEmptyIntervalIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	col := NewCollector("vm", "disk")
	col.Enable()
	deltaFeed(t, rng, col, 150)
	a := col.Snapshot()
	b := col.Snapshot()
	d := b.Sub(a)
	if d.Commands != 0 {
		t.Fatalf("empty interval has %d commands", d.Commands)
	}
	if got := a.ApplyDelta(d); !got.StateEquals(a) {
		t.Fatal("identity delta changed the state")
	}
	if !a.StateEquals(b) {
		t.Fatal("two back-to-back snapshots of an idle collector differ")
	}
}

// TestStateEqualsDetectsAnyChange feeds one extra command and asserts
// StateEquals flips — the guard that lets the agent omit only genuinely
// unchanged disks from delta batches.
func TestStateEqualsDetectsAnyChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	col := NewCollector("vm", "disk")
	col.Enable()
	deltaFeed(t, rng, col, 100)
	before := col.Snapshot()
	deltaFeed(t, rng, col, 1)
	after := col.Snapshot()
	if before.StateEquals(after) {
		t.Fatal("StateEquals missed a one-command change")
	}
	if !after.StateEquals(after) {
		t.Fatal("StateEquals is not reflexive")
	}
	// Not just one command's worth: any single cell, sum, total and
	// extrema included.
	for i := range after.cells {
		off := *after
		off.cells = slices.Clone(after.cells)
		off.cells[i]++
		if after.StateEquals(&off) {
			t.Fatalf("StateEquals missed a change in cell %d", i)
		}
	}
}

// TestZeroValueSnapshotIsEmpty: a snapshot without a cell vector — the
// literal a caller writes to stand in for "nothing seen" — is the empty
// snapshot to every method, not a nil dereference.
func TestZeroValueSnapshotIsEmpty(t *testing.T) {
	z := &Snapshot{VM: "vm", Disk: "d", Commands: 1}
	for _, m := range Metrics() {
		for _, cl := range []Class{All, Reads, Writes} {
			h := z.Histogram(m, cl)
			if h == nil || h.Total != 0 || h.Sum != 0 || len(h.Counts) != len(h.Edges)+1 {
				t.Fatalf("Histogram(%s, %s) of the zero value = %+v, want an empty view", m, cl, h)
			}
		}
	}
	col := NewCollector("vm", "d")
	col.Enable()
	deltaFeed(t, rand.New(rand.NewSource(5)), col, 50)
	full := col.Snapshot()

	if d := full.Sub(z); d.Commands != full.Commands-1 || !slices.Equal(d.Cells(), full.Cells()) {
		t.Error("full − zero value is not full")
	}
	if d := z.Sub(full); d.Histogram(MetricIOLength, All).Total != -full.Commands {
		t.Error("zero value − full is not −full")
	}
	if got := z.ApplyDelta(full.Sub(z)); !got.StateEquals(full) {
		t.Error("zero value + (full − zero value) is not full")
	}
	if got := Aggregate("*", "*", z, full, z); got.Commands != full.Commands+2 || !slices.Equal(got.Cells(), full.Cells()) {
		t.Error("merging the zero value in changed the histograms")
	}
	if got := IntervalSince(z, full); got.Commands != full.Commands-1 {
		t.Errorf("interval since the zero value: %d commands", got.Commands)
	}
	if !z.StateEquals(&Snapshot{Commands: 1}) || z.StateEquals(full) || z.StateEquals(&Snapshot{}) {
		t.Error("StateEquals on the zero value")
	}
	if f := FingerprintOf(z); f.AccessPattern != PatternRandom || f.DominantIOBytes != 0 {
		t.Errorf("fingerprint of the zero value: %+v", f)
	}
	if z.ReadFraction() != 0 || !strings.Contains(z.Summary(), "1 commands") || z.Render(Metrics(), All) == "" {
		t.Error("ReadFraction, Summary or Render on the zero value")
	}
	data, err := json.Marshal(z)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil || !back.StateEquals(z) || back.VM != "vm" {
		t.Errorf("JSON round trip of the zero value: %v", err)
	}
}

// TestSubMarksKeptExtrema: a Sub delta marks Kept exactly the extrema equal
// to the earlier snapshot's, its cells still the later's; ApplyDelta takes
// a kept one from its receiver, so a placeholder there changes nothing, and
// for a derived delta it derives class-all's from the filled classes' too,
// and for one marked KeptWhole takes them as they are.
// What ApplyDelta, CaptureInto and AddInterval make keeps nothing.
func TestSubMarksKeptExtrema(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	col := NewCollector("vm", "disk")
	col.Enable()
	deltaFeed(t, rng, col, 200)
	for round := range 8 {
		earlier := col.Snapshot()
		deltaFeed(t, rng, col, rng.Intn(40))
		later := col.Snapshot()
		d := later.Sub(earlier)
		var want uint64
		holed := Snapshot{Kept: d.Kept, cells: slices.Clone(d.cells)}
		holed.Errors, holed.Commands, holed.NumReads, holed.NumWrites = d.Errors, d.Commands, d.NumReads, d.NumWrites
		holed.ReadBytes, holed.WriteBytes = d.ReadBytes, d.WriteBytes
		for i := range cellTable {
			h, e, l := cellTable[i].Of(holed.cells), cellTable[i].Of(earlier.cells), cellTable[i].Of(later.cells)
			for k := range 2 {
				if c := len(h) - 2 + k; e[c] == l[c] {
					want |= 1 << (2*i + k)
					h[c] = -12345 // a placeholder, as a delta read without its base holds
				} else if h[c] != l[c] {
					t.Fatalf("round %d: histogram %d extremum %d is not the later's", round, i, k)
				}
			}
		}
		if d.Kept != want {
			t.Fatalf("round %d: Kept %#x, want %#x", round, d.Kept, want)
		}
		if !d.Derived() {
			holed.Kept |= KeptWhole
		} else { // what a decoder reading a derived body without its base derives
			for f := range families {
				all, r, w := cellTable[3*f].Of(holed.cells), cellTable[3*f+1].Of(holed.cells), cellTable[3*f+2].Of(holed.cells)
				n := len(all) - 4
				all[n+2], all[n+3] = AllExtrema(r[n+1:], w[n+1:])
			}
		}
		for name, delta := range map[string]*Snapshot{"Sub": d, "placeholders": &holed} {
			if got := earlier.ApplyDelta(delta); !got.StateEquals(later) || got.Kept != 0 {
				t.Fatalf("round %d: ApplyDelta of the %s delta differs from the later capture (Kept %#x)", round, name, got.Kept)
			}
		}
		sum, reused := &Snapshot{Kept: d.Kept | 1}, &Snapshot{Kept: d.Kept | 1}
		sum.AddInterval(nil, d)
		col.CaptureInto(reused)
		if sum.Kept != 0 || reused.Kept != 0 {
			t.Fatalf("round %d: an AddInterval sum keeps %#x, a capture %#x", round, sum.Kept, reused.Kept)
		}
	}
}
