// Package telemetry is the observability layer for the characterization
// service itself. The paper's pitch is a service cheap enough to leave
// always on and inspect online (§5.2's /proc/vmware nodes, Table 2's
// overhead numbers); this package makes the reproduction hold itself to
// that standard:
//
//   - a hand-rolled Prometheus text-format Exporter (GET /metrics) over a
//     core.Registry: per-vdisk command counters, the six paper histograms
//     as cumulative Prometheus histograms (the paper's irregular bin edges
//     become `le` bounds), and the collectors' self-telemetry — so Table
//     2's overhead is a live, scrapeable metric. Its exposition Writer is
//     exported: every other component (fleet aggregator, re-exporter,
//     agent, pipeline tracker, datacenter simulator) implements Source
//     and writes its own series when attached with Exporter.With;
//   - a Streamer: a periodic sampler retaining a bounded ring of
//     per-interval delta snapshots per vdisk, served as a JSON time series
//     (GET /disks/{vm}/{disk}/series) and as a live SSE feed (GET /watch);
//   - the two helpers every HTTP surface in the repo shares: the Chrome
//     trace-event writer (WriteChromeTrace), behind both the command
//     tracer's and the fleet pipeline's GET /debug/trace, and the JSON
//     reply pair (JSONError, WriteJSON).
//
// Everything here reads the concurrency-safe surfaces built in
// internal/core (atomic snapshots, RWMutex registry), so all handlers can
// serve while simulations run — including the parallel multi-VM driver's
// worlds. No external dependencies: the Prometheus exposition format and
// SSE are both plain text over HTTP.
package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
)

// DiskStatsSource reports the vSCSI-layer lifetime counters of one virtual
// disk: commands issued, completed and errored, plus the in-flight gauge.
// hypervisor.Host implements it; the exporter
// uses it to publish the disk-level view next to the collector-level one.
type DiskStatsSource interface {
	DiskCounters(vm, disk string) (issued, completed, errored uint64, inflight int64, ok bool)
}

// JSONError writes a JSON error body ({"error": msg}) with the given
// status, setting the Allow header when allowed methods are supplied.
// With WriteJSON it is the one reply helper behind every HTTP surface in
// the repo, so the contract in internal/httpstats' package comment (JSON
// bodies on every error, Allow on every 405) holds by construction.
func JSONError(w http.ResponseWriter, code int, msg string, allow ...string) {
	if len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON writes v as an indented JSON 200 reply (500 with a JSON error
// body when v cannot be marshalled).
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		JSONError(w, http.StatusInternalServerError, err.Error())
	}
}
