// Package report contains the experiment harness that regenerates every
// table and figure in the paper's evaluation (§4–§5). Each experiment
// builds the full stack — workload → filesystem model → virtual SCSI layer
// with the characterization service attached → storage array model — runs
// it on the deterministic engine, and renders the same histograms the paper
// plots. cmd/experiments and the repository-level benchmarks both drive
// these functions.
package report

import (
	"fmt"
	"sort"
	"strings"

	"vscsistats/internal/core"
	"vscsistats/internal/simclock"
)

// Chart is one rendered figure panel.
type Chart struct {
	Title string
	Body  string
}

// Result is a regenerated experiment: headline observations plus rendered
// panels and machine-readable CSV series.
type Result struct {
	ID     string // e.g. "fig2"
	Title  string
	Notes  []string
	Charts []Chart
	CSVs   map[string]string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, CSVs: make(map[string]string)}
}

func (r *Result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) addChart(title, body string) {
	r.Charts = append(r.Charts, Chart{Title: title, Body: body})
}

// String renders the full result as text.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  * %s\n", n)
	}
	for _, c := range r.Charts {
		fmt.Fprintf(&b, "\n--- %s ---\n%s", c.Title, c.Body)
	}
	return b.String()
}

// CSVNames lists the result's CSV series in stable order.
func (r *Result) CSVNames() []string {
	names := make([]string, 0, len(r.CSVs))
	for n := range r.CSVs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Options tune experiment scale. The defaults reproduce the paper's
// qualitative results in seconds of wall-clock time; raising Duration and
// DataBytes approaches the paper's actual run lengths.
type Options struct {
	// Duration is the measured portion of the run in virtual time.
	Duration simclock.Time
	// DataBytes scales the primary dataset (e.g. the Filebench total
	// filesize, paper value 10 GB).
	DataBytes int64
	// Seed drives all randomness.
	Seed int64
}

// DefaultOptions returns the standard scale: 60 virtual seconds over a 2 GB
// working set.
func DefaultOptions() Options {
	return Options{Duration: 60 * simclock.Second, DataBytes: 2 << 30, Seed: 1}
}

// farFraction is the share of seeks at |distance| > 50000 sectors (the
// outer histogram spikes the paper reads as "random").
func farFraction(s *core.Snapshot, cl core.Class) float64 {
	h := s.Histogram(core.MetricSeekDistance, cl)
	if h.Total == 0 {
		return 0
	}
	n := h.Counts[0] + h.Counts[1] + h.Counts[len(h.Counts)-1] + h.Counts[len(h.Counts)-2]
	return float64(n) / float64(h.Total)
}
