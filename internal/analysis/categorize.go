package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vscsistats/internal/core"
)

// Workload categorization against a reference catalog — the full version of
// the paper's §7 plan to "investigate automatic categorization of
// workloads": snapshots are matched to named reference characterizations by
// the total-variation distance of their environment-independent histograms
// (size, seek distance, outstanding I/Os, read fraction), the §3.7 metrics
// that survive a change of storage hardware.

// Reference is a named workload characterization in a catalog.
type Reference struct {
	Name string
	Snap *core.Snapshot
}

// Catalog matches snapshots against references.
type Catalog struct {
	refs []Reference
}

// NewCatalog builds a catalog; references need at least one block I/O.
func NewCatalog(refs ...Reference) (*Catalog, error) {
	for _, r := range refs {
		if r.Snap == nil || r.Snap.Commands == 0 {
			return nil, fmt.Errorf("analysis: reference %q holds no block I/O", r.Name)
		}
	}
	return &Catalog{refs: refs}, nil
}

// Add appends a reference.
func (c *Catalog) Add(name string, snap *core.Snapshot) error {
	if snap == nil || snap.Commands == 0 {
		return fmt.Errorf("analysis: reference %q holds no block I/O", name)
	}
	c.refs = append(c.refs, Reference{name, snap})
	return nil
}

// Names lists the catalog's reference names in insertion order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.refs))
	for i, r := range c.refs {
		out[i] = r.Name
	}
	return out
}

// Best classifies the probe and returns only the closest reference.
func (c *Catalog) Best(probe *core.Snapshot) (Match, error) {
	matches, err := c.Classify(probe)
	if err != nil {
		return Match{}, err
	}
	if len(matches) == 0 {
		return Match{}, fmt.Errorf("analysis: catalog holds no references")
	}
	return matches[0], nil
}

// Match is one catalog entry's similarity to a probe snapshot.
type Match struct {
	Name string
	// Score is a distance in [0,1]: 0 identical shapes, 1 disjoint.
	Score float64
	// Components break the score down per metric.
	Components map[string]float64
}

// String renders the match.
func (m Match) String() string {
	return fmt.Sprintf("%s (distance %.3f)", m.Name, m.Score)
}

// classifyWeights weights the environment-independent components. Size and
// locality carry most of a workload's identity; queue depth and read mix
// refine it.
var classifyWeights = []struct {
	name   string
	weight float64
}{
	{"ioLength", 0.35},
	{"seekDistance", 0.30},
	{"outstandingIOs", 0.15},
	{"readFraction", 0.20},
}

// Classify ranks the catalog against the probe, best match first.
func (c *Catalog) Classify(probe *core.Snapshot) ([]Match, error) {
	if probe == nil || probe.Commands == 0 {
		return nil, fmt.Errorf("analysis: probe holds no block I/O")
	}
	matches := make([]Match, 0, len(c.refs))
	for _, ref := range c.refs {
		m := Match{Name: ref.Name, Components: make(map[string]float64)}
		for _, w := range classifyWeights {
			var d float64
			if w.name == "readFraction" {
				d = math.Abs(probe.ReadFraction() - ref.Snap.ReadFraction())
			} else { // named after the metric whose histograms it compares
				metric := core.Metric(w.name)
				d = Distance(probe.Histogram(metric, core.All), ref.Snap.Histogram(metric, core.All))
			}
			m.Components[w.name] = d
			m.Score += w.weight * d
		}
		matches = append(matches, m)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Score < matches[j].Score })
	return matches, nil
}

// Report renders a classification as text: the verdict, the ranking, and
// the fingerprint-derived recommendations for the probe.
func (c *Catalog) Report(probe *core.Snapshot) (string, error) {
	matches, err := c.Classify(probe)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if len(matches) > 0 {
		fmt.Fprintf(&b, "closest reference workload: %s\n", matches[0])
	}
	for _, m := range matches {
		fmt.Fprintf(&b, "  %-20s %.3f\n", m.Name, m.Score)
	}
	b.WriteString(core.FingerprintOf(probe).Report())
	return b.String(), nil
}
