package ring

import (
	"slices"
	"testing"
)

// TestRing pins the FIFO contract: a partial fill reads back in push
// order, a wrap keeps the newest values, Last(n) clamps to what is
// retained, Reset empties the ring but not Total, and a limit ≤ 0
// keeps one value.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		limit  int
		pushes int  // values 1..pushes
		reset  bool // Reset after the pushes
		more   int  // values pushes+1..pushes+more pushed after the reset
		n      int  // Last(n)
		want   []int
		total  uint64
	}{
		{"empty", 4, 0, false, 0, 0, []int{}, 0},
		{"partial fill in order", 4, 3, false, 0, 0, []int{1, 2, 3}, 3},
		{"exactly full", 4, 4, false, 0, 0, []int{1, 2, 3, 4}, 4},
		{"wrap keeps newest", 4, 10, false, 0, 0, []int{7, 8, 9, 10}, 10},
		{"wrap twice to a lap boundary", 4, 12, false, 0, 0, []int{9, 10, 11, 12}, 12},
		{"last n of a partial fill", 4, 3, false, 0, 2, []int{2, 3}, 3},
		{"last n within the tail chunk", 4, 10, false, 0, 2, []int{9, 10}, 10},
		{"last n across the wrap", 4, 10, false, 0, 3, []int{8, 9, 10}, 10},
		{"last n past the retained count", 4, 10, false, 0, 9, []int{7, 8, 9, 10}, 10},
		{"negative n means all", 4, 6, false, 0, -1, []int{3, 4, 5, 6}, 6},
		{"reset keeps total", 4, 10, true, 0, 0, []int{}, 10},
		{"refill after reset", 3, 5, true, 5, 0, []int{8, 9, 10}, 10},
		{"limit 0 acts as 1", 0, 5, false, 0, 0, []int{5}, 5},
		{"negative limit acts as 1", -3, 5, false, 0, 0, []int{5}, 5},
		{"large limit grows with use", 1 << 20, 20, false, 0, 2, []int{19, 20}, 20},
	} {
		r := New[int](tc.limit)
		for v := 1; v <= tc.pushes; v++ {
			r.Push(v)
		}
		if tc.reset {
			r.Reset()
		}
		for v := tc.pushes + 1; v <= tc.pushes+tc.more; v++ {
			r.Push(v)
		}
		if got := r.Last(tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Last(%d) = %v, want %v", tc.name, tc.n, got, tc.want)
		}
		if r.Total() != tc.total {
			t.Errorf("%s: Total = %d, want %d", tc.name, r.Total(), tc.total)
		}
		if wantLen := len(tc.want); tc.n <= 0 && r.Len() != wantLen {
			t.Errorf("%s: Len = %d, want %d", tc.name, r.Len(), wantLen)
		}
		if r.limit != max(tc.limit, 1) {
			t.Errorf("%s: limit = %d, want %d", tc.name, r.limit, max(tc.limit, 1))
		}
	}
}

// TestRingStorageGrowsToLimit: storage never reserves past the limit and
// never grows once the ring is full.
func TestRingStorageGrowsToLimit(t *testing.T) {
	r := New[int](1000)
	if cap(r.buf) != 0 {
		t.Fatalf("new ring reserved %d slots", cap(r.buf))
	}
	for v := 0; v < 1000; v++ {
		r.Push(v)
	}
	full := cap(r.buf)
	if full != 1000 {
		t.Errorf("full ring reserved %d slots for a limit of 1000", full)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Push(1) }); allocs != 0 || cap(r.buf) != full {
		t.Errorf("push into a full ring: %v allocs, cap %d → %d", allocs, full, cap(r.buf))
	}
}

// TestRingPushReportsEvicted: Push hands back the value it overwrites,
// oldest first, and nothing while the ring still has room.
func TestRingPushReportsEvicted(t *testing.T) {
	r := New[int](2)
	var got []int
	for v := 1; v <= 5; v++ {
		if old, evicted := r.Push(v); evicted {
			got = append(got, old)
		}
	}
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Errorf("evicted %v, want [1 2 3]", got)
	}
}
