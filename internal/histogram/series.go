package histogram

import (
	"fmt"
	"strings"
)

// Series is a time series of interval histograms: one snapshot per fixed
// interval, each covering only the samples that arrived during that
// interval. The paper's Figure 4(d) ("Outstanding I/Os Histogram over Time",
// 6-second intervals) and Figure 6(c) ("I/O Latency Histogram over Time")
// are renderings of exactly this structure.
type Series struct {
	// IntervalMicros is the width of each interval in microseconds.
	IntervalMicros int64
	// Snaps[i] covers (i*Interval, (i+1)*Interval].
	Snaps []*Snapshot
}

// Append adds the next interval's snapshot.
func (ts *Series) Append(s *Snapshot) { ts.Snaps = append(ts.Snaps, s) }

// Len returns the number of recorded intervals.
func (ts *Series) Len() int { return len(ts.Snaps) }

// CSV renders the series as a matrix: one row per bin, one column per
// interval (S1, S2, …), the layout of the paper's 3-D surface charts.
func (ts *Series) CSV() string {
	if len(ts.Snaps) == 0 {
		return ""
	}
	first := ts.Snaps[0]
	var b strings.Builder
	fmt.Fprintf(&b, "bin (%s)", first.Unit)
	for i := range ts.Snaps {
		fmt.Fprintf(&b, ",S%d", i+1)
	}
	b.WriteByte('\n')
	for bin := range first.Counts {
		b.WriteString(first.BinLabel(bin))
		for _, s := range ts.Snaps {
			fmt.Fprintf(&b, ",%d", s.Counts[bin])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Heatmap renders the series as an ASCII intensity grid — one row per bin,
// one column per interval, darkness proportional to that cell's share of
// its interval. It is the textual analogue of the paper's 3-D surface
// charts (Figures 4(d), 6(c)): a mode shift reads as the dark band jumping
// rows.
func (ts *Series) Heatmap() string {
	if len(ts.Snaps) == 0 {
		return ""
	}
	const shades = " .:-=+*#%@"
	first := ts.Snaps[0]
	var b strings.Builder
	fmt.Fprintf(&b, "%s over time (%d intervals of %dus; darker = larger share)\n",
		first.Name, len(ts.Snaps), ts.IntervalMicros)
	for bin := range first.Counts {
		fmt.Fprintf(&b, "%12s |", first.BinLabel(bin))
		for _, s := range ts.Snaps {
			var peak int64 = 1
			for _, c := range s.Counts {
				if c > peak {
					peak = c
				}
			}
			idx := int(s.Counts[bin] * int64(len(shades)-1) / peak)
			b.WriteByte(shades[idx])
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// String renders a compact per-interval summary (total and modal bin), a
// textual stand-in for the paper's surface plots.
func (ts *Series) String() string {
	var b strings.Builder
	if len(ts.Snaps) > 0 {
		fmt.Fprintf(&b, "%s over time (%d intervals of %dus)\n",
			ts.Snaps[0].Name, len(ts.Snaps), ts.IntervalMicros)
	}
	for i, s := range ts.Snaps {
		mode, modeCount := 0, int64(-1)
		for bin, c := range s.Counts {
			if c > modeCount {
				mode, modeCount = bin, c
			}
		}
		fmt.Fprintf(&b, "S%-3d total=%-8d mode=%s (%d)\n", i+1, s.Total, s.BinLabel(mode), modeCount)
	}
	return b.String()
}
