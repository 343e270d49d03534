package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
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
//     errored counters and the in-flight gauge.
//
// Counters reset when a collector is Reset; Prometheus treats that as an
// ordinary counter reset. All reads go through the concurrency-safe
// snapshot surfaces, so scraping while simulations issue commands is safe.
type Exporter struct {
	reg           *core.Registry
	disks         DiskStatsSource
	fleet         FleetSource
	fleetReExport FleetReExportSource
	fleetObs      FleetObsSource
	sim           SimSource
	scrapes       atomic.Int64
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
// hypervisor.Host or ParallelSim) and returns the exporter.
func (e *Exporter) WithDiskStats(src DiskStatsSource) *Exporter {
	e.disks = src
	return e
}

// ServeHTTP implements GET /metrics.
func (e *Exporter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet, http.MethodHead)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	if err := e.Write(w); err != nil {
		// Headers are gone; nothing useful left to do but log via the
		// error return of the underlying writer (client went away).
		return
	}
}

// scrapeRow is one virtual disk's gathered state.
type scrapeRow struct {
	vm, disk  string
	enabled   bool
	snap      *core.Snapshot
	self      *core.SelfSnapshot
	hasDisk   bool
	issued    uint64
	completed uint64
	errored   uint64
	inflight  int64
}

// Write emits one complete exposition to w.
func (e *Exporter) Write(w io.Writer) error {
	t0 := time.Now()
	e.scrapes.Add(1)

	var rows []scrapeRow
	for _, c := range e.reg.List() {
		row := scrapeRow{vm: c.VM(), disk: c.Disk(), enabled: c.Enabled()}
		// Order matters: read the self stats before Snapshot so the
		// staleness gauge reflects the previous observer, not this scrape.
		row.self = c.SelfStats()
		row.snap = c.Snapshot()
		if e.disks != nil {
			row.issued, row.completed, row.errored, row.inflight, row.hasDisk =
				e.disks.DiskCounters(c.VM(), c.Disk())
		}
		rows = append(rows, row)
	}

	p := &promWriter{w: bufio.NewWriter(w)}
	e.writeCounters(p, rows)
	e.writeDiskCounters(p, rows)
	e.writeWorkloadHistograms(p, rows)
	e.writeSelf(p, rows)
	e.writeFleet(p)
	e.writeFleetReExport(p)
	e.writeFleetObs(p)
	e.writeSim(p)

	p.family("vscsistats_collectors", "gauge", "Collectors registered in the control plane.")
	p.sample("vscsistats_collectors", "", strconv.Itoa(len(rows)))
	p.family("vscsistats_scrapes_total", "counter", "Scrapes served by this exporter.")
	p.sample("vscsistats_scrapes_total", "", strconv.FormatInt(e.scrapes.Load(), 10))
	p.family("vscsistats_last_scrape_duration_seconds", "gauge", "Wall-clock duration of the previous scrape.")
	if last := e.lastScrapeNs.Load(); last > 0 {
		p.sample("vscsistats_last_scrape_duration_seconds", "", formatFloat(float64(last)/1e9))
	} else {
		p.sample("vscsistats_last_scrape_duration_seconds", "", "0")
	}

	err := p.flush()
	e.lastScrapeNs.Store(time.Since(t0).Nanoseconds())
	return err
}

func (e *Exporter) writeCounters(p *promWriter, rows []scrapeRow) {
	type counter struct {
		name, help string
		get        func(*core.Snapshot) int64
	}
	counters := []counter{
		{"vscsistats_commands_total", "Block I/O commands observed by the collector.", func(s *core.Snapshot) int64 { return s.Commands }},
		{"vscsistats_reads_total", "Read commands observed.", func(s *core.Snapshot) int64 { return s.NumReads }},
		{"vscsistats_writes_total", "Write commands observed.", func(s *core.Snapshot) int64 { return s.NumWrites }},
		{"vscsistats_read_bytes_total", "Bytes read by observed commands.", func(s *core.Snapshot) int64 { return s.ReadBytes }},
		{"vscsistats_write_bytes_total", "Bytes written by observed commands.", func(s *core.Snapshot) int64 { return s.WriteBytes }},
		{"vscsistats_errors_total", "Commands completed with a status other than GOOD.", func(s *core.Snapshot) int64 { return s.Errors }},
	}
	for _, c := range counters {
		p.family(c.name, "counter", c.help)
		for _, row := range rows {
			var v int64
			if row.snap != nil {
				v = c.get(row.snap)
			}
			p.sample(c.name, vmDiskLabels(row.vm, row.disk), strconv.FormatInt(v, 10))
		}
	}
	p.family("vscsistats_collector_enabled", "gauge", "1 when the characterization service is recording this disk.")
	for _, row := range rows {
		v := "0"
		if row.enabled {
			v = "1"
		}
		p.sample("vscsistats_collector_enabled", vmDiskLabels(row.vm, row.disk), v)
	}
}

func (e *Exporter) writeDiskCounters(p *promWriter, rows []scrapeRow) {
	if e.disks == nil {
		return
	}
	type counter struct {
		name, help string
		get        func(scrapeRow) uint64
	}
	counters := []counter{
		{"vscsistats_disk_issued_total", "Commands issued at the vSCSI layer (control commands included).", func(r scrapeRow) uint64 { return r.issued }},
		{"vscsistats_disk_completed_total", "Commands completed at the vSCSI layer.", func(r scrapeRow) uint64 { return r.completed }},
		{"vscsistats_disk_errored_total", "vSCSI completions with a status other than GOOD.", func(r scrapeRow) uint64 { return r.errored }},
	}
	for _, c := range counters {
		p.family(c.name, "counter", c.help)
		for _, row := range rows {
			if !row.hasDisk {
				continue
			}
			p.sample(c.name, vmDiskLabels(row.vm, row.disk), strconv.FormatUint(c.get(row), 10))
		}
	}
	p.family("vscsistats_disk_inflight", "gauge", "Commands issued but not yet completed at the vSCSI layer.")
	for _, row := range rows {
		if !row.hasDisk {
			continue
		}
		p.sample("vscsistats_disk_inflight", vmDiskLabels(row.vm, row.disk), strconv.FormatInt(row.inflight, 10))
	}
}

// workloadFamilies maps the paper's metric families to Prometheus names.
var workloadFamilies = []struct {
	metric core.Metric
	name   string
	help   string
	// windowedOnly marks the one family with no read/write breakdown.
	windowedOnly bool
}{
	{core.MetricIOLength, "vscsistats_io_length_bytes", "I/O length histogram (paper Figures 2-5 (a)/(b)).", false},
	{core.MetricSeekDistance, "vscsistats_seek_distance_sectors", "Signed seek distance between consecutive commands, in 512-byte sectors.", false},
	{core.MetricSeekWindowed, "vscsistats_seek_distance_windowed_sectors", "Minimum-magnitude seek distance to any of the last N=16 commands.", true},
	{core.MetricOutstanding, "vscsistats_outstanding_ios", "Outstanding I/Os observed at command arrival.", false},
	{core.MetricLatency, "vscsistats_io_latency_microseconds", "Device latency from issue to completion, in microseconds.", false},
	{core.MetricInterarrival, "vscsistats_io_interarrival_microseconds", "Inter-arrival time between consecutive commands, in microseconds.", false},
}

func (e *Exporter) writeWorkloadHistograms(p *promWriter, rows []scrapeRow) {
	for _, fam := range workloadFamilies {
		p.family(fam.name, "histogram", fam.help)
		for _, row := range rows {
			if row.snap == nil {
				continue
			}
			classes := []core.Class{core.All, core.Reads, core.Writes}
			if fam.windowedOnly {
				classes = classes[:1]
			}
			for _, cl := range classes {
				h := row.snap.Histogram(fam.metric, cl)
				if h == nil {
					continue
				}
				p.histogram(fam.name, classLabels(row.vm, row.disk, cl.String()), h)
			}
		}
	}
}

func (e *Exporter) writeSelf(p *promWriter, rows []scrapeRow) {
	type counter struct {
		name, help string
		get        func(*core.SelfSnapshot) int64
	}
	counters := []counter{
		{"vscsistats_self_observations_total", "Enabled fast-path calls (issue + complete) into the collector.", func(s *core.SelfSnapshot) int64 { return s.Observations }},
		{"vscsistats_self_samples_total", "Observations that were wall-clock timed (1 in 64).", func(s *core.SelfSnapshot) int64 { return s.Sampled }},
		{"vscsistats_self_contended_total", "Fast-path calls that had to wait for the collector's mutex.", func(s *core.SelfSnapshot) int64 { return s.Contended }},
		{"vscsistats_self_snapshots_total", "Snapshot() calls that returned data.", func(s *core.SelfSnapshot) int64 { return s.Snapshots }},
	}
	for _, c := range counters {
		p.family(c.name, "counter", c.help)
		for _, row := range rows {
			p.sample(c.name, vmDiskLabels(row.vm, row.disk), strconv.FormatInt(c.get(row.self), 10))
		}
	}

	p.family("vscsistats_self_snapshot_staleness_seconds", "gauge",
		"Age of the most recent snapshot of this collector (absent until one is taken).")
	now := e.nowNanos()
	for _, row := range rows {
		last := row.self.LastSnapshotUnixNano
		if last == 0 {
			continue
		}
		age := float64(now-last) / 1e9
		if age < 0 {
			age = 0
		}
		p.sample("vscsistats_self_snapshot_staleness_seconds", vmDiskLabels(row.vm, row.disk), formatFloat(age))
	}

	p.family("vscsistats_self_observe_nanoseconds", "histogram",
		"Sampled wall-clock cost of one fast-path observation, timed inside the collector's mutex so lock wait is excluded (the live Table 2 CPU row).")
	for _, row := range rows {
		p.histogram("vscsistats_self_observe_nanoseconds", vmDiskLabels(row.vm, row.disk), row.self.ObserveNs)
	}
}

// promWriter accumulates exposition lines, capturing the first write error.
type promWriter struct {
	w   *bufio.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// family emits the HELP and TYPE header of one metric family.
func (p *promWriter) family(name, typ, help string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// sample emits one sample line; labels is a pre-rendered `k="v",...` list
// (empty for unlabelled samples).
func (p *promWriter) sample(name, labels, value string) {
	if labels == "" {
		p.printf("%s %s\n", name, value)
		return
	}
	p.printf("%s{%s} %s\n", name, labels, value)
}

// histogram emits the cumulative bucket/sum/count triple of one snapshot.
// The +Inf bucket and _count use the running bucket sum rather than the
// snapshot's Total so the series is internally consistent even when
// concurrent inserts tear the copy (Prometheus requires bucket <= bucket
// and +Inf == count). Histogram.Snapshot derives Total from the copied
// per-bin counts, so today cum always equals h.Total; keeping the running
// sum makes this emitter safe against any snapshot source. Each bin is one
// atomic counter that only grows, so successive scrapes of the same stream
// stay monotone per bucket — the property Prometheus rate() and
// histogram_quantile() rely on.
func (p *promWriter) histogram(name, baseLabels string, h *histogram.Snapshot) {
	var cum int64
	for i, edge := range h.Edges {
		cum += h.Counts[i]
		p.sample(name+"_bucket", baseLabels+`,le="`+strconv.FormatInt(edge, 10)+`"`, strconv.FormatInt(cum, 10))
	}
	cum += h.Counts[len(h.Edges)]
	p.sample(name+"_bucket", baseLabels+`,le="+Inf"`, strconv.FormatInt(cum, 10))
	p.sample(name+"_sum", baseLabels, strconv.FormatInt(h.Sum, 10))
	p.sample(name+"_count", baseLabels, strconv.FormatInt(cum, 10))
}

func (p *promWriter) flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

func vmDiskLabels(vm, disk string) string {
	return `vm="` + escapeLabel(vm) + `",disk="` + escapeLabel(disk) + `"`
}

func classLabels(vm, disk, class string) string {
	return vmDiskLabels(vm, disk) + `,class="` + escapeLabel(class) + `"`
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a gauge value compactly.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
