package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// requireSameSnapshot asserts two snapshots are bin-exact across every
// metric family and class, plus the scalar counters.
func requireSameSnapshot(t *testing.T, label string, want, got *core.Snapshot) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: nil mismatch: want %v, got %v", label, want == nil, got == nil)
	}
	if want == nil {
		return
	}
	if want.Commands != got.Commands || want.NumReads != got.NumReads ||
		want.NumWrites != got.NumWrites || want.ReadBytes != got.ReadBytes ||
		want.WriteBytes != got.WriteBytes || want.Errors != got.Errors {
		t.Fatalf("%s: counters differ: want %+v, got %+v", label,
			[]int64{want.Commands, want.NumReads, want.NumWrites, want.ReadBytes, want.WriteBytes, want.Errors},
			[]int64{got.Commands, got.NumReads, got.NumWrites, got.ReadBytes, got.WriteBytes, got.Errors})
	}
	for _, m := range core.Metrics() {
		for _, cl := range []core.Class{core.All, core.Reads, core.Writes} {
			hw, hg := want.Histogram(m, cl), got.Histogram(m, cl)
			if (hw == nil) != (hg == nil) {
				t.Fatalf("%s: %s/%s nil mismatch", label, m, cl)
			}
			if hw == nil {
				continue
			}
			if hw.Total != hg.Total {
				t.Errorf("%s: %s/%s totals differ: want %d, got %d", label, m, cl, hw.Total, hg.Total)
				continue
			}
			for i := range hw.Counts {
				if hw.Counts[i] != hg.Counts[i] {
					t.Errorf("%s: %s/%s bucket %d differs: want %d, got %d",
						label, m, cl, i, hw.Counts[i], hg.Counts[i])
				}
			}
		}
	}
}

// legacyPerDisk replays recs the legacy way, one collector per (VM, disk)
// substream in first-seen order — the oracle for ReplayParallel.
func legacyPerDisk(recs []Record) []*core.Collector {
	var cols []*core.Collector
	seen := make(map[diskKey]bool)
	for _, r := range recs {
		k := diskKey{r.VM, r.Disk}
		if seen[k] {
			continue
		}
		seen[k] = true
		col := core.NewCollector(r.VM, r.Disk)
		col.Enable()
		Replay(Filter(recs, OnlyDisk(r.VM, r.Disk)), col)
		cols = append(cols, col)
	}
	return cols
}

// A capture arbitrarily permuted still replays bin-exact once the merge
// window covers the displacement: the k-way merge in front of the
// demultiplexer restores issue order just as the legacy sort did.
func TestReplayMergedShuffledInput(t *testing.T) {
	recs := Synthesize(3, 10000)
	oracle := make(map[diskKey]*core.Snapshot)
	for _, c := range legacyPerDisk(recs) {
		oracle[diskKey{c.VM(), c.Disk()}] = c.Snapshot()
	}

	shuffled := append([]Record(nil), recs...)
	rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	res, err := ReplayParallel(NewSliceSource(shuffled), ReplayConfig{MergeWindow: len(shuffled) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OrderViolations != 0 {
		t.Fatalf("%d violations with a full window", res.Stats.OrderViolations)
	}
	if res.Stats.Disks != len(oracle) {
		t.Fatalf("%d collectors, oracle has %d", res.Stats.Disks, len(oracle))
	}
	for _, c := range res.Collectors() {
		label := "shuffled " + c.VM() + "/" + c.Disk()
		requireSameSnapshot(t, label, oracle[diskKey{c.VM(), c.Disk()}], c.Snapshot())
	}
}

// The parallel engine must be bin-exact against the legacy replay of each
// substream — and give bit-identical results at every worker count, with
// the per-VM and cluster rollups matching the aggregated legacy disks.
func TestReplayParallelMatchesLegacyAllWorkerCounts(t *testing.T) {
	recs := Synthesize(11, 20000)
	oracle := legacyPerDisk(recs)
	oracleSnaps := make([]*core.Snapshot, len(oracle))
	for i, c := range oracle {
		oracleSnaps[i] = c.Snapshot()
	}
	wantMerged := core.Aggregate("*", "*", oracleSnaps...)

	for workers := 1; workers <= 8; workers++ {
		res, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Records != uint64(len(recs)) {
			t.Fatalf("workers=%d: replayed %d of %d", workers, res.Stats.Records, len(recs))
		}
		if res.Stats.OrderViolations != 0 {
			t.Fatalf("workers=%d: %d order violations on an ordered capture", workers, res.Stats.OrderViolations)
		}
		cols := res.Collectors()
		if len(cols) != len(oracle) || res.Stats.Disks != len(oracle) {
			t.Fatalf("workers=%d: %d collectors, oracle has %d", workers, len(cols), len(oracle))
		}
		for i := range cols {
			if cols[i].VM() != oracle[i].VM() || cols[i].Disk() != oracle[i].Disk() {
				t.Fatalf("workers=%d: collector %d is %s/%s, oracle %s/%s", workers, i,
					cols[i].VM(), cols[i].Disk(), oracle[i].VM(), oracle[i].Disk())
			}
			requireSameSnapshot(t, cols[i].VM()+"/"+cols[i].Disk(), oracleSnaps[i], cols[i].Snapshot())
		}
		requireSameSnapshot(t, "cluster rollup", wantMerged, res.Merged())
		requireSameSnapshot(t, "vm rollup", aggregateVM(oracle, recs[0].VM), aggregateVM(cols, recs[0].VM))
	}
}

func aggregateVM(cols []*core.Collector, vm string) *core.Snapshot {
	var snaps []*core.Snapshot
	for _, c := range cols {
		if c.VM() == vm {
			snaps = append(snaps, c.Snapshot())
		}
	}
	return core.Aggregate(vm, "*", snaps...)
}

// ReplayParallel registers its collectors so a live endpoint can scrape a
// replay in flight.
func TestReplayParallelRegistersCollectors(t *testing.T) {
	reg := core.NewRegistry()
	res, err := ReplayParallel(NewSliceSource(Synthesize(5, 2000)), ReplayConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reg.List()); got != res.Stats.Disks {
		t.Fatalf("registry holds %d collectors, want %d", got, res.Stats.Disks)
	}
}

// Out-of-order records past the lookahead are counted, not dropped.
func TestReplayOrderViolationsCounted(t *testing.T) {
	recs := []Record{
		{Seq: 0, IssueMicros: 100, CompleteMicros: 150, VM: "v", Disk: "d", Op: 0x88, Blocks: 8},
		{Seq: 1, IssueMicros: 50, CompleteMicros: 90, VM: "v", Disk: "d", Op: 0x88, Blocks: 8},
	}
	res, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OrderViolations != 1 {
		t.Fatalf("OrderViolations = %d, want 1", res.Stats.OrderViolations)
	}
	if res.Stats.Records != 2 {
		t.Fatalf("Records = %d, want 2 (violations must not drop records)", res.Stats.Records)
	}
}

// repeatSource yields n copies of one record with rising issue times.
type repeatSource struct {
	rec Record
	n   int
}

func (s *repeatSource) Next(rec *Record) error {
	if s.n == 0 {
		return io.EOF
	}
	s.n--
	s.rec.Seq++
	s.rec.IssueMicros++
	s.rec.CompleteMicros++
	*rec = s.rec
	return nil
}

// Progress fires every 2^18 records with running counts.
func TestReplayProgressCallback(t *testing.T) {
	var calls []uint64
	src := &repeatSource{rec: Record{VM: "v", Disk: "d", Op: 0x28, Blocks: 8, CompleteMicros: 100}, n: 2<<18 + 5}
	_, err := ReplayParallel(src, ReplayConfig{
		Progress: func(n uint64) { calls = append(calls, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || calls[0] != 1<<18 || calls[1] != 2<<18 {
		t.Fatalf("progress calls = %v", calls)
	}
}

// A mid-stream source error surfaces, with the prefix replayed and stats
// reported.
func TestReplayPartialOnSourceError(t *testing.T) {
	recs := Synthesize(4, 1000)
	encoded := encode(t, recs)
	truncated := encoded[:len(encoded)/2]

	src, _, err := Open(bytes.NewReader(truncated), FormatUnknown)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayParallel(src, ReplayConfig{})
	if err == nil {
		t.Fatal("truncated stream replayed without error")
	}
	if res.Stats.Records == 0 || res.Stats.Records >= uint64(len(recs)) {
		t.Fatalf("Records = %d, want a strict prefix of %d", res.Stats.Records, len(recs))
	}
}

// Steady-state replay must not allocate per record: slabs, batches and
// merge entries are all reused, so allocations stay O(disks + window),
// orders of magnitude below O(records).
func TestReplayAllocsBounded(t *testing.T) {
	recs := Synthesize(8, 100000)
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	// Structural allocations only (collectors, slabs, batches); 5000 is
	// more than an order of magnitude below one-per-record.
	if allocs > 5000 {
		t.Fatalf("ReplayParallel: %v allocs for 100k records", allocs)
	}
}

// The streaming engine on one worker must cost at most half the legacy
// materialize-and-sort replay of the same records: the ≥2× single-core
// claim that justified it, timed min-of-3 per side so one descheduled pass
// cannot fail it. 64k records keep the whole test well under a second.
func TestStreamingReplayAtMostHalfLegacy(t *testing.T) {
	recs := Synthesize(1, 1<<16)
	minOf3 := func(pass func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			pass()
			best = min(best, time.Since(start))
		}
		return best
	}
	legacy := minOf3(func() {
		col := core.NewCollector("v", "d")
		col.Enable()
		Replay(recs, col)
	})
	streaming := minOf3(func() {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	ratio := float64(streaming) / float64(legacy)
	t.Logf("streaming %v, legacy %v: %.2f×", streaming, legacy, ratio)
	if ratio > 0.5 {
		t.Fatalf("streaming replay is %.2f× legacy, want ≤ 0.5×", ratio)
	}
}

// A pass's batches must die with the pass. With the collector off during 40
// passes over one in-memory trace, one collection afterwards has to bring the
// heap back to within two passes' allocations of where it started: batches
// recycled through a per-call sync.Pool stayed reachable from the runtime's
// pool lists until a second collection, 40 passes' worth of them.
func TestReplayParallelBatchesDieWithThePass(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	recs := Synthesize(8, 50000)
	pass := func() {
		if _, err := ReplayParallel(NewSliceSource(recs), ReplayConfig{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	pass() // builds the shared lookup tables
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	perPass := int64(after.TotalAlloc - before.TotalAlloc)

	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 40; i++ {
		pass()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if growth := int64(after.HeapAlloc) - int64(before.HeapAlloc); growth > 2*perPass {
		t.Fatalf("40 passes left %d B on the heap after a collection; one pass allocates %d B", growth, perPass)
	}
}

// The merge source is itself a RecordSource: chaining it re-orders and
// then streams records through io.EOF semantics.
func TestMergeSourceSmallWindowViolations(t *testing.T) {
	// Displacement of 3 with window 1: the late record is emitted out of
	// order and counted.
	recs := []Record{
		{IssueMicros: 40, VM: "v", Disk: "a"},
		{IssueMicros: 50, VM: "v", Disk: "a"},
		{IssueMicros: 60, VM: "v", Disk: "a"},
		{IssueMicros: 10, VM: "v", Disk: "b"},
	}
	m := NewMergeSource(NewSliceSource(recs), 1)
	var got []int64
	var rec Record
	for {
		if err := m.Next(&rec); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		got = append(got, rec.IssueMicros)
	}
	if len(got) != 4 {
		t.Fatalf("merged %d records, want 4", len(got))
	}
	if m.Violations() == 0 {
		t.Error("displacement beyond the window must count as a violation")
	}
}
