package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// testRig is one deterministic single-engine world observed by a registry.
type testRig struct {
	eng *simclock.Engine
	d   *vscsi.Disk
	col *core.Collector
	reg *core.Registry
}

func newRig(t *testing.T, vm, disk string) *testRig {
	t.Helper()
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(simclock.Millisecond, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: vm, Name: disk, CapacitySectors: 1 << 20})
	col := core.NewCollector(vm, disk)
	d.AddObserver(col)
	reg := core.NewRegistry()
	reg.Register(col)
	return &testRig{eng: eng, d: d, col: col, reg: reg}
}

// issue runs reads 4 KB reads and writes 4 KB writes to completion.
func (rig *testRig) issue(t *testing.T, reads, writes int) {
	t.Helper()
	for i := 0; i < reads; i++ {
		if _, err := rig.d.Issue(scsi.Read(uint64(i*8)%(1<<19), 8), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writes; i++ {
		if _, err := rig.d.Issue(scsi.Write(uint64(i*16)%(1<<19), 8), nil); err != nil {
			t.Fatal(err)
		}
	}
	rig.eng.Run()
}

// TestMetricsExposition is the golden test: a deterministic workload, one
// scrape, strict parse, and value checks for every metric family.
func TestMetricsExposition(t *testing.T) {
	rig := newRig(t, "vm1", "scsi0:0")
	rig.col.Enable()
	rig.issue(t, 30, 10)

	exp := NewExporter(rig.reg)
	srv := httptest.NewServer(exp)
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 8192)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	text := sb.String()
	samples := parseProm(t, text)

	check := func(name string, want float64, labelPairs ...string) {
		t.Helper()
		if s := findSample(t, samples, name, labelPairs...); s.value != want {
			t.Errorf("%s{%v} = %v, want %v", name, labelPairs, s.value, want)
		}
	}
	check("vscsistats_commands_total", 40, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_reads_total", 30, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_writes_total", 10, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_read_bytes_total", 30*4096, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_write_bytes_total", 10*4096, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_errors_total", 0, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_collector_enabled", 1, "vm", "vm1", "disk", "scsi0:0")
	check("vscsistats_collectors", 1)

	// The six paper histograms, with the class split adding up.
	for _, fam := range []string{
		"vscsistats_io_length_bytes",
		"vscsistats_seek_distance_sectors",
		"vscsistats_outstanding_ios",
		"vscsistats_io_latency_microseconds",
		"vscsistats_io_interarrival_microseconds",
	} {
		all := findSample(t, samples, fam+"_count", "class", "all")
		reads := findSample(t, samples, fam+"_count", "class", "reads")
		writes := findSample(t, samples, fam+"_count", "class", "writes")
		if all.value != reads.value+writes.value {
			t.Errorf("%s: all %v != reads %v + writes %v", fam, all.value, reads.value, writes.value)
		}
	}
	// Every completed command contributes one latency observation.
	check("vscsistats_io_latency_microseconds_count", 40, "class", "all")
	// Latency is a constant 1 ms, so the sum is exact.
	check("vscsistats_io_latency_microseconds_sum", 40*1000, "class", "all")
	// The windowed seek histogram has no class split.
	if s := findSample(t, samples, "vscsistats_seek_distance_windowed_sectors_count", "vm", "vm1"); s.label("class") != "all" {
		t.Errorf("windowed seek class = %q, want all only", s.label("class"))
	}
	for _, s := range samples {
		if s.name == "vscsistats_seek_distance_windowed_sectors_count" && s.label("class") != "all" {
			t.Errorf("windowed seek exported class %q", s.label("class"))
		}
	}

	// Self-telemetry: issue+complete per command, 1-in-64 sampled.
	check("vscsistats_self_observations_total", 80, "vm", "vm1")
	check("vscsistats_self_samples_total", 1, "vm", "vm1") // 80/64 = 1
	obs := findSample(t, samples, "vscsistats_self_observe_nanoseconds_count", "vm", "vm1")
	if obs.value != 1 {
		t.Errorf("observe histogram count = %v, want 1", obs.value)
	}
	// Self-telemetry is read before the scrape's own Snapshot (so staleness
	// measures the previous observer), hence the counter lags by one: the
	// first scrape still reports zero prior snapshots.
	check("vscsistats_self_snapshots_total", 0, "vm", "vm1")
	findSample(t, samples, "vscsistats_scrapes_total")

	// A second scrape must show the staleness gauge (absent above: the
	// first scrape took the first-ever snapshot) and a bumped scrape count.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	for {
		n, err := resp2.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp2.Body.Close()
	samples2 := parseProm(t, sb.String())
	if s := findSample(t, samples2, "vscsistats_scrapes_total"); s.value != 2 {
		t.Errorf("scrapes_total = %v, want 2", s.value)
	}
	if s := findSample(t, samples2, "vscsistats_self_snapshot_staleness_seconds", "vm", "vm1"); s.value < 0 {
		t.Errorf("staleness = %v, want >= 0", s.value)
	}
	if s := findSample(t, samples2, "vscsistats_self_snapshots_total", "vm", "vm1"); s.value != 1 {
		t.Errorf("snapshots_total = %v, want 1 (the first scrape's)", s.value)
	}
}

// TestMetricsNeverEnabled: a registered but never-enabled collector still
// exports its identity (zero counters, enabled=0) without histograms, and
// the exposition stays valid.
func TestMetricsNeverEnabled(t *testing.T) {
	rig := newRig(t, "cold", "d0")
	exp := NewExporter(rig.reg)
	var sb strings.Builder
	if err := exp.Write(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, sb.String())
	if s := findSample(t, samples, "vscsistats_collector_enabled", "vm", "cold"); s.value != 0 {
		t.Errorf("enabled = %v", s.value)
	}
	if s := findSample(t, samples, "vscsistats_commands_total", "vm", "cold"); s.value != 0 {
		t.Errorf("commands = %v", s.value)
	}
	for _, s := range samples {
		if strings.HasPrefix(s.name, "vscsistats_io_length_bytes") {
			t.Errorf("never-enabled collector exported workload histogram %s", s.name)
		}
	}
}

// TestMetricsLabelEscaping round-trips a hostile VM name through the
// exposition: quote, backslash and newline must come back intact via the
// strict parser's unescaper.
func TestMetricsLabelEscaping(t *testing.T) {
	evil := "vm\"quote\\slash\nline"
	reg := core.NewRegistry()
	reg.Register(core.NewCollector(evil, "d\\0"))
	exp := NewExporter(reg)
	var sb strings.Builder
	if err := exp.Write(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, sb.String())
	s := findSample(t, samples, "vscsistats_collector_enabled")
	if s.label("vm") != evil {
		t.Errorf("vm label round-trip: %q != %q", s.label("vm"), evil)
	}
	if s.label("disk") != "d\\0" {
		t.Errorf("disk label round-trip: %q", s.label("disk"))
	}
}

// TestMetricsDiskStats: with a DiskStatsSource attached, the vSCSI-layer
// counters appear and match the disk's atomics.
func TestMetricsDiskStats(t *testing.T) {
	rig := newRig(t, "vm1", "scsi0:0")
	rig.col.Enable()
	rig.issue(t, 5, 3)

	src := diskStatsFunc(func(vm, disk string) (uint64, uint64, uint64, int64, bool) {
		if vm != "vm1" || disk != "scsi0:0" {
			return 0, 0, 0, 0, false
		}
		return rig.d.Issued(), rig.d.Completed(), rig.d.Errored(), int64(rig.d.Inflight()), true
	})
	exp := NewExporter(rig.reg).WithDiskStats(src)
	var sb strings.Builder
	if err := exp.Write(&sb); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, sb.String())
	if s := findSample(t, samples, "vscsistats_disk_issued_total", "vm", "vm1"); s.value != 8 {
		t.Errorf("issued = %v, want 8", s.value)
	}
	if s := findSample(t, samples, "vscsistats_disk_completed_total", "vm", "vm1"); s.value != 8 {
		t.Errorf("completed = %v, want 8", s.value)
	}
	if s := findSample(t, samples, "vscsistats_disk_inflight", "vm", "vm1"); s.value != 0 {
		t.Errorf("inflight = %v, want 0", s.value)
	}
}

// diskStatsFunc adapts a function to DiskStatsSource for tests.
type diskStatsFunc func(vm, disk string) (uint64, uint64, uint64, int64, bool)

func (f diskStatsFunc) DiskCounters(vm, disk string) (uint64, uint64, uint64, int64, bool) {
	return f(vm, disk)
}

// TestMetricsMethodNotAllowed: non-GET gets 405 with an Allow header and a
// JSON error body.
func TestMetricsMethodNotAllowed(t *testing.T) {
	exp := NewExporter(core.NewRegistry())
	rec := httptest.NewRecorder()
	exp.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("code = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q", allow)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestFleetExpositionAbsent / TestMetricsSimAbsent: an exporter nothing
// was attached to emits no fleet_* or vscsim_* series. (The series
// themselves are checked against the real components in internal/fleet
// and internal/vscsim, which own them.)
func TestFleetExpositionAbsent(t *testing.T) {
	var sb strings.Builder
	if err := NewExporter(core.NewRegistry()).Write(&sb); err != nil {
		t.Fatal(err)
	}
	for _, s := range parseProm(t, sb.String()) {
		if strings.HasPrefix(s.name, "vscsistats_fleet") {
			t.Errorf("unexpected fleet series %s without a fleet source", s.name)
		}
	}
}

func TestMetricsSimAbsent(t *testing.T) {
	var sb strings.Builder
	if err := NewExporter(core.NewRegistry()).Write(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "vscsim") {
		t.Error("exposition mentions vscsim without a simulator attached")
	}
}

// sourceFunc adapts a function to Source for tests.
type sourceFunc func(*Writer)

func (f sourceFunc) WriteMetrics(w *Writer) { f(w) }

// TestWriterSeam drives the exported writer the way a component does —
// a Table over its rows, a hand-written family — through the strict
// parser: sources land in attachment order, integral values print as
// integers whatever their size, label values are escaped, and a table
// with no rows still declares its families.
func TestWriterSeam(t *testing.T) {
	type row struct {
		name string
		n    int64
	}
	series := []Series[row]{{"vscsistats_t_rows_total", "counter", "Rows.", func(r row) float64 { return float64(r.n) }}}
	first := sourceFunc(func(w *Writer) {
		Table(w, []row{{`a"b`, 123456789}, {"c", 1 << 40}}, func(r row) string { return Labels("name", r.name) }, series)
	})
	second := sourceFunc(func(w *Writer) {
		Table(w, nil, nil, []Series[row]{{"vscsistats_t_empty", "gauge", "No rows.", nil}})
		w.Family("vscsistats_t_ratio", "gauge", "A non-integral\nvalue.")
		w.Sample("vscsistats_t_ratio", "", 0.25)
	})
	var sb strings.Builder
	if err := NewExporter(core.NewRegistry()).With(first, second).Write(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	samples := parseProm(t, text)
	if s := findSample(t, samples, "vscsistats_t_rows_total", "name", `a"b`); s.value != 123456789 {
		t.Errorf("escaped row = %v", s.value)
	}
	for _, want := range []string{
		`vscsistats_t_rows_total{name="a\"b"} 123456789` + "\n",
		`vscsistats_t_rows_total{name="c"} 1099511627776` + "\n",
		"# TYPE vscsistats_t_empty gauge\n",
		`# HELP vscsistats_t_ratio A non-integral\nvalue.` + "\n",
		"vscsistats_t_ratio 0.25\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if i, j := strings.Index(text, "vscsistats_t_rows_total"), strings.Index(text, "vscsistats_t_empty"); i < 0 || j < i {
		t.Errorf("sources out of attachment order (first at %d, second at %d)", i, j)
	}
	if i, j := strings.Index(text, "vscsistats_t_ratio"), strings.Index(text, "# HELP vscsistats_collectors"); j < i {
		t.Errorf("sources must precede the exporter's own trailer (%d, %d)", i, j)
	}
}
