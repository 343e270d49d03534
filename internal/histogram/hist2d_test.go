package histogram

import (
	"strings"
	"testing"
)

func TestHist2DInsert(t *testing.T) {
	h := New2D("corr", "x", []int64{10, 20}, "y", []int64{100})
	h.Insert(5, 50)    // x bin 0, y bin 0
	h.Insert(15, 500)  // x bin 1, y bin 1 (overflow)
	h.Insert(15, 90)   // x bin 1, y bin 0
	h.Insert(999, 999) // x overflow, y overflow
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	s := h.Snapshot()
	if s.Counts[0][0] != 1 || s.Counts[1][1] != 1 || s.Counts[1][0] != 1 || s.Counts[2][1] != 1 {
		t.Errorf("grid wrong: %v", s.Counts)
	}
}

func TestHist2DString(t *testing.T) {
	h := New2D("corr", "x", []int64{10}, "y", []int64{10})
	h.Insert(5, 5)
	out := h.Snapshot().String()
	if !strings.Contains(out, "corr") || !strings.Contains(out, ">10") {
		t.Errorf("render missing pieces:\n%s", out)
	}
}

func TestHist2DValidation(t *testing.T) {
	for _, c := range []struct{ x, y []int64 }{
		{nil, []int64{1}},
		{[]int64{1}, nil},
		{[]int64{2, 1}, []int64{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New2D(%v,%v) should panic", c.x, c.y)
				}
			}()
			New2D("n", "x", c.x, "y", c.y)
		}()
	}
}

func TestSeriesCSV(t *testing.T) {
	mk := func(vals ...int64) *Snapshot {
		h := New("oio", "I/Os", []int64{1, 2})
		for _, v := range vals {
			h.Insert(v)
		}
		return h.Snapshot()
	}
	ts := &Series{IntervalMicros: 6_000_000}
	ts.Append(mk(1, 1, 2))
	ts.Append(mk(3, 3))
	if ts.Len() != 2 {
		t.Fatalf("Len = %d", ts.Len())
	}
	csv := ts.CSV()
	if !strings.Contains(csv, "S1,S2") && !strings.Contains(csv, ",S1,S2") {
		t.Errorf("CSV header missing intervals:\n%s", csv)
	}
	if !strings.Contains(csv, ">2,0,2") {
		t.Errorf("CSV overflow row wrong:\n%s", csv)
	}
	if ts.String() == "" {
		t.Error("String empty")
	}
}

func TestSeriesEmpty(t *testing.T) {
	ts := &Series{}
	if ts.Len() != 0 || ts.CSV() != "" || ts.String() != "" {
		t.Error("empty series should render empty")
	}
}

func TestSeriesHeatmap(t *testing.T) {
	mk := func(vals ...int64) *Snapshot {
		h := New("lat", "us", []int64{10, 100})
		for _, v := range vals {
			h.Insert(v)
		}
		return h.Snapshot()
	}
	ts := &Series{IntervalMicros: 1000}
	ts.Append(mk(5, 5, 5)) // mode in bin "10"
	ts.Append(mk(50, 50))  // mode in bin "100"
	hm := ts.Heatmap()
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 4 { // header + 3 bins
		t.Fatalf("heatmap:\n%s", hm)
	}
	// Bin "10" row: dark then blank; bin "100" row: blank then dark.
	if !strings.Contains(lines[1], "@ ") {
		t.Errorf("row 10: %q", lines[1])
	}
	if !strings.Contains(lines[2], " @") {
		t.Errorf("row 100: %q", lines[2])
	}
	if (&Series{}).Heatmap() != "" {
		t.Error("empty heatmap should be empty")
	}
}

func BenchmarkHist2DInsert(b *testing.B) {
	h := New2D("corr", "seek", SeekDistanceEdges(), "lat", LatencyEdges())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Insert(int64(i%1000000)-500000, int64(i%200000))
	}
}
