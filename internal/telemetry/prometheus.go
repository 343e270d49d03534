package telemetry

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
)

// Exporter serves a registry in the Prometheus text exposition format
// (version 0.0.4), hand-rolled on the standard library. One scrape walks
// Registry.List() — sorted by (vm, disk), so output is diffable — and
// emits, per virtual disk:
//
//   - command/byte/error counters and the enabled gauge,
//   - the six paper histograms as cumulative Prometheus histograms with a
//     class="all|reads|writes" label, the paper's irregular bin edges
//     reused verbatim as `le` bounds (including the negative seek bins),
//   - the collector's self-telemetry: observation/contention/drop
//     counters, the sampled ns/observe cost histogram and the snapshot
//     staleness gauge — Table 2 as a live metric,
//   - optionally (WithDiskStats) the vSCSI layer's issued/completed/
//     errored counters and the in-flight gauge,
//
// then every attached Source (With) in attachment order: a fleet
// aggregator, re-exporter, agent, pipeline tracker or datacenter
// simulator each writes its own series.
//
// Counters reset when a collector is Reset; Prometheus treats that as an
// ordinary counter reset. All reads go through the concurrency-safe
// snapshot surfaces, so scraping while simulations issue commands is safe.
type Exporter struct {
	reg     *core.Registry
	disks   DiskStatsSource
	sources []Source
	scrapes atomic.Int64
	// lastScrapeNs records the duration of the most recent scrape.
	lastScrapeNs atomic.Int64
	// nowNanos is the wall clock, injectable for tests.
	nowNanos func() int64
}

// NewExporter returns an exporter over the registry.
func NewExporter(reg *core.Registry) *Exporter {
	return &Exporter{reg: reg, nowNanos: func() int64 { return time.Now().UnixNano() }}
}

// WithDiskStats attaches a source of vSCSI-layer disk counters (e.g. a
// hypervisor.Host) and returns the exporter.
func (e *Exporter) WithDiskStats(src DiskStatsSource) *Exporter {
	e.disks = src
	return e
}

// With attaches components that write their own series and returns the
// exporter.
func (e *Exporter) With(src ...Source) *Exporter {
	e.sources = append(e.sources, src...)
	return e
}

// ServeHTTP implements GET /metrics.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet, http.MethodHead)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	// A write error here means the client went away after the headers;
	// there is nobody left to tell.
	e.Write(w)
}

// scrapeRow is one virtual disk's gathered state.
type scrapeRow struct {
	labels    string
	enabled   bool
	snap      *core.Snapshot
	self      *core.SelfSnapshot
	issued    uint64
	completed uint64
	errored   uint64
	inflight  int64
}

func rowLabels(r scrapeRow) string { return r.labels }

// snapCounter is the row of a counter read off the disk's snapshot, 0
// until the collector has been enabled.
func snapCounter(name, help string, get func(*core.Snapshot) int64) Series[scrapeRow] {
	return Counter(name, help, func(r scrapeRow) int64 {
		if r.snap == nil {
			return 0
		}
		return get(r.snap)
	})
}

var collectorSeries = []Series[scrapeRow]{
	snapCounter("vscsistats_commands_total", "Block I/O commands observed by the collector.", func(s *core.Snapshot) int64 { return s.Commands }),
	snapCounter("vscsistats_reads_total", "Read commands observed.", func(s *core.Snapshot) int64 { return s.NumReads }),
	snapCounter("vscsistats_writes_total", "Write commands observed.", func(s *core.Snapshot) int64 { return s.NumWrites }),
	snapCounter("vscsistats_read_bytes_total", "Bytes read by observed commands.", func(s *core.Snapshot) int64 { return s.ReadBytes }),
	snapCounter("vscsistats_write_bytes_total", "Bytes written by observed commands.", func(s *core.Snapshot) int64 { return s.WriteBytes }),
	snapCounter("vscsistats_errors_total", "Commands completed with a status other than GOOD.", func(s *core.Snapshot) int64 { return s.Errors }),
	Gauge("vscsistats_collector_enabled", "1 when the characterization service is recording this disk.", func(r scrapeRow) int {
		if r.enabled {
			return 1
		}
		return 0
	}),
}

var diskSeries = []Series[scrapeRow]{
	Counter("vscsistats_disk_issued_total", "Commands issued at the vSCSI layer (control commands included).", func(r scrapeRow) uint64 { return r.issued }),
	Counter("vscsistats_disk_completed_total", "Commands completed at the vSCSI layer.", func(r scrapeRow) uint64 { return r.completed }),
	Counter("vscsistats_disk_errored_total", "vSCSI completions with a status other than GOOD.", func(r scrapeRow) uint64 { return r.errored }),
	Gauge("vscsistats_disk_inflight", "Commands issued but not yet completed at the vSCSI layer.", func(r scrapeRow) int64 { return r.inflight }),
}

var selfSeries = []Series[scrapeRow]{
	Counter("vscsistats_self_observations_total", "Enabled fast-path calls (issue + complete) into the collector.", func(r scrapeRow) int64 { return r.self.Observations }),
	Counter("vscsistats_self_samples_total", "Observations that were wall-clock timed (1 in 64).", func(r scrapeRow) int64 { return r.self.Sampled }),
	Counter("vscsistats_self_contended_total", "Fast-path calls that had to wait for the collector's mutex.", func(r scrapeRow) int64 { return r.self.Contended }),
	Counter("vscsistats_self_snapshots_total", "Snapshot() calls that returned data.", func(r scrapeRow) int64 { return r.self.Snapshots }),
}

// Write emits one complete exposition to w.
func (e *Exporter) Write(out io.Writer) error {
	t0 := time.Now()
	e.scrapes.Add(1)

	var rows, diskRows []scrapeRow
	var snaps []*core.Snapshot
	for _, c := range e.reg.List() {
		row := scrapeRow{labels: Labels("vm", c.VM(), "disk", c.Disk()), enabled: c.Enabled()}
		// Order matters: read the self stats before Snapshot so the
		// staleness gauge reflects the previous observer, not this scrape.
		row.self = c.SelfStats()
		row.snap = c.Snapshot()
		if row.snap != nil {
			snaps = append(snaps, row.snap)
		}
		if e.disks != nil {
			var ok bool
			row.issued, row.completed, row.errored, row.inflight, ok = e.disks.DiskCounters(c.VM(), c.Disk())
			if ok {
				diskRows = append(diskRows, row)
			}
		}
		rows = append(rows, row)
	}

	w := newWriter(out)
	Table(w, rows, rowLabels, collectorSeries)
	if e.disks != nil {
		Table(w, diskRows, rowLabels, diskSeries)
	}
	w.WorkloadHistograms("vscsistats", "", snaps, func(s *core.Snapshot) string {
		return Labels("vm", s.VM, "disk", s.Disk)
	})
	e.writeSelf(w, rows)
	for _, src := range e.sources {
		src.WriteMetrics(w)
	}

	w.Family("vscsistats_collectors", "gauge", "Collectors registered in the control plane.")
	w.Sample("vscsistats_collectors", "", float64(len(rows)))
	w.Family("vscsistats_scrapes_total", "counter", "Scrapes served by this exporter.")
	w.Sample("vscsistats_scrapes_total", "", float64(e.scrapes.Load()))
	w.Family("vscsistats_last_scrape_duration_seconds", "gauge", "Wall-clock duration of the previous scrape.")
	w.Sample("vscsistats_last_scrape_duration_seconds", "", float64(e.lastScrapeNs.Load())/1e9)

	err := w.flush()
	e.lastScrapeNs.Store(time.Since(t0).Nanoseconds())
	return err
}

func (e *Exporter) writeSelf(w *Writer, rows []scrapeRow) {
	Table(w, rows, rowLabels, selfSeries)

	w.Family("vscsistats_self_snapshot_staleness_seconds", "gauge",
		"Age of the most recent snapshot of this collector (absent until one is taken).")
	now := e.nowNanos()
	for _, row := range rows {
		if last := row.self.LastSnapshotUnixNano; last != 0 {
			w.Sample("vscsistats_self_snapshot_staleness_seconds", row.labels, max(0, float64(now-last)/1e9))
		}
	}

	w.Family("vscsistats_self_observe_nanoseconds", "histogram",
		"Sampled wall-clock cost of one fast-path observation, timed inside the collector's mutex so lock wait is excluded (the live Table 2 CPU row).")
	for _, row := range rows {
		w.Histogram("vscsistats_self_observe_nanoseconds", row.labels, row.self.ObserveNs)
	}
}
