package core

import (
	"math/rand"
	"testing"
)

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// nearestLoop is the windowed-seek scan nearest replaced, kept verbatim as
// the reference: a branch per slot on the magnitude comparison.
func nearestLoop(lba uint64, recent []uint64, recentLen int) int64 {
	var wseek int64
	for i := 0; i < recentLen; i++ {
		d := int64(lba) - int64(recent[i])
		if i == 0 || abs64(d) < abs64(wseek) {
			wseek = d
		}
	}
	return wseek
}

// TestNearestMatchesLoop: the branch-free scan returns what the loop it
// replaced returns for every ring — near, equal, mirrored (a ±d tie, in
// both slot orders: the first slot wins) and 2^63 apart (a distance whose
// magnitude does not fit and that both treat as the smallest).
func TestNearestMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, window := range []int{1, 2, 16, 17} {
		for trial := 0; trial < 20000; trial++ {
			lba := rng.Uint64()
			if trial%3 == 0 {
				lba = uint64(rng.Intn(1 << 20))
			}
			n := 1 + rng.Intn(window)
			ring := make([]uint64, window)
			for i := range ring {
				d := uint64(rng.Intn(64))
				switch rng.Intn(8) {
				case 0:
					ring[i] = lba // equal
				case 1:
					ring[i] = lba + 1<<63 // 2^63 apart, either way round
				case 2, 3: // a mirrored pair around lba, in either slot order
					ring[i] = lba + d
					if j := rng.Intn(window); j != i {
						ring[j] = lba - d
					}
				case 4:
					ring[i] = rng.Uint64()
				default: // near
					ring[i] = lba + d - 32
				}
			}
			if got, want := nearest(lba, ring[:n]), nearestLoop(lba, ring, n); got != want {
				t.Fatalf("window %d: nearest(%d, %v) = %d, the loop says %d", window, lba, ring[:n], got, want)
			}
		}
	}
	// Length 0: the collector inserts no sample and calls neither.
	c := NewCollectorWindow("vm", "disk", 1)
	c.Enable()
	c.OnIssue(issueReq(0, 1<<40, 0))
	if s := c.Snapshot(); s.Histogram(MetricSeekWindowed, All).Total != 0 {
		t.Fatalf("empty ring produced %d windowed-seek samples", s.Histogram(MetricSeekWindowed, All).Total)
	}
}
