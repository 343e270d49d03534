package fleet

import (
	"net/http"

	"vscsistats/internal/analysis"
	"vscsistats/internal/telemetry"
)

// Fleet-scope workload classification — the paper's §7 automatic
// categorization applied to the aggregator's merged per-VM views instead
// of a single live collector. The aggregator holds a reference catalog,
// installed or swapped live with SetCatalog; GET /fleet/catalog classifies
// every fresh VM against it. Classification reads the same memoized per-VM
// merges every other aggregator read uses, so the endpoint costs one
// catalog distance computation per VM and nothing on the ingest path.

// SetCatalog installs or replaces the reference catalog served by
// GET /fleet/catalog (nil uninstalls it). Safe to call while the
// aggregator ingests and serves.
func (g *Aggregator) SetCatalog(cat *analysis.Catalog) {
	g.catalog.Store(cat)
}

// CatalogScore is one reference's ranked similarity to a VM.
type CatalogScore struct {
	Name string `json:"name"`
	// Score is a distance in [0,1]: 0 identical shapes, 1 disjoint.
	Score float64 `json:"score"`
	// Components breaks the score down per metric (ioLength,
	// seekDistance, outstandingIOs, readFraction).
	Components map[string]float64 `json:"components,omitempty"`
}

// CatalogVM is one VM's classification against the reference catalog.
type CatalogVM struct {
	VM string `json:"vm"`
	// Personality is the closest reference's name, Distance its score.
	Personality string  `json:"personality"`
	Distance    float64 `json:"distance"`
	// Commands is the evidence: block I/Os behind the merged view.
	Commands int64 `json:"commands"`
	// Ranking is the full ordered reference list with per-metric
	// components; populated only for single-VM queries (?vm=NAME) to keep
	// whole-fleet responses proportional to the VM count.
	Ranking []CatalogScore `json:"ranking,omitempty"`
}

// CatalogResult is a fleet-wide classification, served by
// GET /fleet/catalog.
type CatalogResult struct {
	// References lists the catalog's reference names in insertion order.
	References []string `json:"references"`
	// VMs holds one classification per fresh VM, sorted by VM name.
	VMs []CatalogVM `json:"vms"`
	// Mix counts classified VMs per winning reference — the realized
	// workload population of the fleet.
	Mix map[string]int `json:"mix"`
	// Unclassified counts VMs whose merged view holds no block I/O yet
	// (nothing to classify; not an error).
	Unclassified int `json:"unclassified"`
}

// errNoCatalog is the 404 body for classification without a catalog.
const errNoCatalog = "no reference catalog installed (call SetCatalog)"

// ClassifyVMs classifies every merged per-VM view against the installed
// catalog. A nil return with nil error means no catalog is installed.
func (g *Aggregator) ClassifyVMs(includeStale bool) *CatalogResult {
	cat := g.catalog.Load()
	if cat == nil {
		return nil
	}
	res := &CatalogResult{References: cat.Names(), Mix: make(map[string]int)}
	for _, s := range g.VMSnapshots(includeStale) {
		if s.Commands == 0 {
			res.Unclassified++
			continue
		}
		best, err := cat.Best(s)
		if err != nil {
			res.Unclassified++
			continue
		}
		res.VMs = append(res.VMs, CatalogVM{
			VM: s.VM, Personality: best.Name, Distance: best.Score, Commands: s.Commands,
		})
		res.Mix[best.Name]++
	}
	return res
}

// serveCatalog handles GET /fleet/catalog[?vm=NAME][&include_stale=1].
func (g *Aggregator) serveCatalog(w http.ResponseWriter, r *http.Request) {
	cat := g.catalog.Load()
	if cat == nil {
		telemetry.JSONError(w, http.StatusNotFound, errNoCatalog)
		return
	}
	includeStale := r.URL.Query().Get("include_stale") == "1"
	if vm := r.URL.Query().Get("vm"); vm != "" {
		for _, s := range g.VMSnapshots(includeStale) {
			if s.VM != vm {
				continue
			}
			matches, err := cat.Classify(s)
			if err != nil {
				telemetry.JSONError(w, http.StatusConflict, err.Error())
				return
			}
			out := CatalogVM{
				VM: vm, Personality: matches[0].Name, Distance: matches[0].Score,
				Commands: s.Commands, Ranking: make([]CatalogScore, len(matches)),
			}
			for i, m := range matches {
				out.Ranking[i] = CatalogScore{Name: m.Name, Score: m.Score, Components: m.Components}
			}
			telemetry.WriteJSON(w, out)
			return
		}
		telemetry.JSONError(w, http.StatusNotFound, "unknown vm")
		return
	}
	telemetry.WriteJSON(w, g.ClassifyVMs(includeStale))
}
