package histogram

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestBinIndexBoundaries(t *testing.T) {
	h := New("t", "u", []int64{10, 20, 30})
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-5, 0}, {0, 0}, {9, 0}, {10, 0},
		{11, 1}, {20, 1},
		{21, 2}, {30, 2},
		{31, 3}, {1000, 3}, {math.MaxInt64, 3},
	}
	for _, c := range cases {
		if got := h.layout.Bin(c.v); got != c.want {
			t.Errorf("BinIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestInsertCountsAndStats(t *testing.T) {
	h := New("t", "u", []int64{10, 20})
	for _, v := range []int64{5, 10, 15, 25, 100} {
		h.Insert(v)
	}
	s := h.Snapshot()
	if s.Total != 5 {
		t.Fatalf("Total = %d, want 5", s.Total)
	}
	wantCounts := []int64{2, 1, 2}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("Counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Min != 5 || s.Max != 100 {
		t.Errorf("Min/Max = %d/%d, want 5/100", s.Min, s.Max)
	}
	if s.Sum != 155 {
		t.Errorf("Sum = %d, want 155", s.Sum)
	}
	if got := s.Mean(); got != 31 {
		t.Errorf("Mean = %v, want 31", got)
	}
}

func TestEmptySnapshot(t *testing.T) {
	s := New("t", "u", []int64{1}).Snapshot()
	if s.Total != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Errorf("empty snapshot not zeroed: %+v", s)
	}
	if s.Percentile(50) != 0 {
		t.Error("Percentile on empty snapshot should be 0")
	}
}

func TestInsertNegativeValues(t *testing.T) {
	h := SeekDistanceLayout.New("seek")
	h.Insert(-1000000)
	h.Insert(-300)
	h.Insert(0)
	h.Insert(1)
	h.Insert(700000)
	s := h.Snapshot()
	// -1000000 <= -500000 -> bin 0; -300 -> bin of edge -64? No: first edge
	// >= -300 is -64, index 4. 0 -> bin of edge 0 (index 8). 1 -> bin of
	// edge 2 (index 9). 700000 -> overflow (index 17).
	for _, c := range []struct{ bin int }{{0}, {4}, {8}, {9}, {17}} {
		if s.Counts[c.bin] != 1 {
			t.Errorf("Counts[%d] = %d, want 1 (snapshot %v)", c.bin, s.Counts[c.bin], s.Counts)
		}
	}
	if s.Min != -1000000 || s.Max != 700000 {
		t.Errorf("Min/Max = %d/%d", s.Min, s.Max)
	}
}

func TestSequentialDistanceLandsInBinTwo(t *testing.T) {
	// The paper: "sequential I/Os will result in a histogram whose peak is
	// centered around 1"; with the figure's edges that is the bin labeled 2.
	h := SeekDistanceLayout.New("seek")
	h.Insert(1)
	s := h.Snapshot()
	idx := -1
	for i, c := range s.Counts {
		if c == 1 {
			idx = i
		}
	}
	if s.BinLabel(idx) != "2" {
		t.Errorf("distance 1 landed in bin %q, want \"2\"", s.BinLabel(idx))
	}
}

func TestIOLengthSpecialSizes(t *testing.T) {
	// 4096 must be separable from 4095 and from 4097..8191.
	h := NewIOLength("len")
	h.Insert(4095)
	h.Insert(4096)
	h.Insert(4097)
	h.Insert(8192)
	s := h.Snapshot()
	find := func(label string) int64 {
		for i := range s.Counts {
			if s.BinLabel(i) == label {
				return s.Counts[i]
			}
		}
		t.Fatalf("no bin labeled %q", label)
		return 0
	}
	if find("4095") != 1 || find("4096") != 1 || find("8191") != 1 || find("8192") != 1 {
		t.Errorf("special sizes not isolated: %v", s.Counts)
	}
}

func TestInsertN(t *testing.T) {
	h := New("t", "u", []int64{10})
	h.InsertN(5, 3)
	h.InsertN(50, 0)  // no-op
	h.InsertN(50, -2) // no-op
	s := h.Snapshot()
	if s.Total != 3 || s.Counts[0] != 3 || s.Sum != 15 {
		t.Errorf("InsertN wrong: %+v", s)
	}
	if s.Min != 5 || s.Max != 5 {
		t.Errorf("InsertN min/max: %d/%d", s.Min, s.Max)
	}
}

func TestReset(t *testing.T) {
	h := New("t", "u", []int64{10})
	h.Insert(5)
	h.Reset()
	s := h.Snapshot()
	if s.Total != 0 || s.Counts[0] != 0 || s.Min != 0 || s.Max != 0 {
		t.Errorf("Reset incomplete: %+v", s)
	}
	h.Insert(7)
	if got := h.Snapshot().Min; got != 7 {
		t.Errorf("Min after reset+insert = %d, want 7", got)
	}
}

func TestConcurrentInsertIsLossless(t *testing.T) {
	h := NewIOLength("len")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Insert(int64((g*per + i) % 600000))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Total != goroutines*per {
		t.Errorf("Total = %d, want %d", s.Total, goroutines*per)
	}
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Total {
		t.Errorf("bin sum %d != total %d", sum, s.Total)
	}
}

func TestPercentile(t *testing.T) {
	h := New("t", "u", []int64{10, 20, 30, 40})
	for v := int64(1); v <= 40; v++ {
		h.Insert(v)
	}
	s := h.Snapshot()
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %d, want min 1", got)
	}
	if got := s.Percentile(100); got != 40 {
		t.Errorf("P100 = %d, want max 40", got)
	}
	if got := s.Percentile(50); got != 20 {
		t.Errorf("P50 = %d, want 20", got)
	}
	if got := s.Percentile(75); got != 30 {
		t.Errorf("P75 = %d, want 30", got)
	}
}

func TestPercentileClampsToObservedRange(t *testing.T) {
	h := New("t", "u", []int64{100, 200})
	h.Insert(150)
	s := h.Snapshot()
	if got := s.Percentile(99); got != 150 {
		t.Errorf("P99 = %d, want clamped to max 150", got)
	}
}

func TestMismatchedLayoutPanics(t *testing.T) {
	a := New("a", "u", []int64{10}).Snapshot()
	b := New("b", "u", []int64{20}).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on layout mismatch")
		}
	}()
	CompareCSV(a, b)
}

func TestNewValidatesEdges(t *testing.T) {
	for _, edges := range [][]int64{{}, {10, 10}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", edges)
				}
			}()
			New("t", "u", edges)
		}()
	}
}

func TestBinLabelAndRange(t *testing.T) {
	s := New("t", "u", []int64{10, 20}).Snapshot()
	if s.BinLabel(0) != "10" || s.BinLabel(1) != "20" || s.BinLabel(2) != ">20" {
		t.Errorf("labels: %q %q %q", s.BinLabel(0), s.BinLabel(1), s.BinLabel(2))
	}
	lo, hi := s.BinRange(0)
	if lo != math.MinInt64 || hi != 10 {
		t.Errorf("BinRange(0) = (%d,%d]", lo, hi)
	}
	lo, hi = s.BinRange(1)
	if lo != 10 || hi != 20 {
		t.Errorf("BinRange(1) = (%d,%d]", lo, hi)
	}
	lo, hi = s.BinRange(2)
	if lo != 20 || hi != math.MaxInt64 {
		t.Errorf("BinRange(2) = (%d,%d]", lo, hi)
	}
}

func TestPowerOfTwoEdges(t *testing.T) {
	got := PowerOfTwoEdges(512, 4096)
	want := []int64{512, 1024, 2048, 4096}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Property: total always equals the sum of all bins and the sum of inserted
// values equals Sum.
func TestInsertConservesMass(t *testing.T) {
	f := func(vals []int32) bool {
		h := New("t", "u", []int64{-100, 0, 100, 10000})
		var sum int64
		for _, v := range vals {
			h.Insert(int64(v))
			sum += int64(v)
		}
		s := h.Snapshot()
		var binSum int64
		for _, c := range s.Counts {
			binSum += c
		}
		return s.Total == int64(len(vals)) && binSum == s.Total && s.Sum == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BinIndex(v) is monotone in v and every value lands in the bin
// whose (lo,hi] range contains it.
func TestBinIndexConsistentWithRange(t *testing.T) {
	s := New("t", "u", SeekDistanceEdges()).Snapshot()
	h := New("t", "u", SeekDistanceEdges())
	f := func(v int64) bool {
		i := h.layout.Bin(v)
		lo, hi := s.BinRange(i)
		return v > lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStandardBinSetsMatchPaper(t *testing.T) {
	if n := len(IOLengthEdges()); n != 17 {
		t.Errorf("IOLengthEdges has %d edges, want 17", n)
	}
	if n := len(SeekDistanceEdges()); n != 17 {
		t.Errorf("SeekDistanceEdges has %d edges, want 17", n)
	}
	if n := len(OutstandingEdges()); n != 12 {
		t.Errorf("OutstandingEdges has %d edges, want 12", n)
	}
	if n := len(LatencyEdges()); n != 10 {
		t.Errorf("LatencyEdges has %d edges, want 10", n)
	}
	// Spot checks against the figures.
	if SeekDistanceEdges()[8] != 0 {
		t.Error("seek distance bins must include 0")
	}
	le := IOLengthEdges()
	if le[3] != 4095 || le[4] != 4096 {
		t.Error("length bins must isolate exactly-4096")
	}
}

func BenchmarkInsert(b *testing.B) {
	h := NewIOLength("len")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Insert(int64(i%600000) + 1)
	}
}

func BenchmarkInsertParallel(b *testing.B) {
	h := NewIOLength("len")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(0)
		for pb.Next() {
			v = (v + 4096) % 600000
			h.Insert(v)
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	h := NewIOLength("len")
	for i := 0; i < 1000; i++ {
		h.Insert(int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Snapshot()
	}
}
