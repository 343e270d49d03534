package fleet

import (
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
)

// scrapeSource runs one exposition with only src attached (over an empty
// registry) through the strict parser, so every histogram it emits is
// also validated as cumulative, ordered and +Inf-terminated.
func scrapeSource(t *testing.T, src telemetry.Source) []promtest.Sample {
	t.Helper()
	var sb strings.Builder
	if err := telemetry.NewExporter(core.NewRegistry()).With(src).Write(&sb); err != nil {
		t.Fatal(err)
	}
	return promtest.Parse(t, sb.String())
}

// TestFleetExposition scrapes a real aggregator — two hosts, one past the
// liveness horizon, one VM name that needs label escaping — and checks
// every fleet_* family against what was ingested.
func TestFleetExposition(t *testing.T) {
	agg, clk := newTestAggregator(10 * time.Second)
	stale := makeRegistry(2, 1, 1, 30)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := agg.Ingest(batchFor(stale, "esx-02", seq), "push"); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(41500 * time.Millisecond)
	fresh := core.NewRegistry()
	for i, vm := range []string{"vm-a", `vm-"odd"`} {
		col := core.NewCollector(vm, "scsi0:0")
		col.Enable()
		feed(col, i+1, 25-10*i)
		fresh.Register(col)
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if err := agg.Ingest(batchFor(fresh, "esx-01", seq), "push"); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(500 * time.Millisecond)
	samples := scrapeSource(t, agg)

	for _, want := range []struct {
		name   string
		labels []string
		value  float64
	}{
		{"vscsistats_fleet_hosts", nil, 2},
		{"vscsistats_fleet_hosts_stale", nil, 1},
		{"vscsistats_fleet_host_up", []string{"host", "esx-01"}, 1},
		{"vscsistats_fleet_host_up", []string{"host", "esx-02"}, 0},
		{"vscsistats_fleet_host_age_seconds", []string{"host", "esx-01"}, 0.5},
		{"vscsistats_fleet_host_age_seconds", []string{"host", "esx-02"}, 42},
		{"vscsistats_fleet_host_snapshots", []string{"host", "esx-01"}, 2},
		{"vscsistats_fleet_host_snapshots", []string{"host", "esx-02"}, 1},
		{"vscsistats_fleet_host_batches_total", []string{"host", "esx-01"}, 7},
		{"vscsistats_fleet_host_batches_total", []string{"host", "esx-02"}, 3},
		{"vscsistats_fleet_tier_depth", nil, 1},
		{"vscsistats_fleet_tier_hosts", []string{"level", "0"}, 2},
		{"vscsistats_fleet_tier_hosts_stale", []string{"level", "0"}, 1},
	} {
		if got := promtest.Find(t, samples, want.name, want.labels...).Value; got != want.value {
			t.Errorf("%s%v = %v, want %v", want.name, want.labels, got, want.value)
		}
	}

	// The merged view holds the fresh host only.
	c := hostSnapshot(fresh)
	for name, want := range map[string]int64{
		"vscsistats_fleet_commands_total":    c.Commands,
		"vscsistats_fleet_reads_total":       c.NumReads,
		"vscsistats_fleet_writes_total":      c.NumWrites,
		"vscsistats_fleet_read_bytes_total":  c.ReadBytes,
		"vscsistats_fleet_write_bytes_total": c.WriteBytes,
		"vscsistats_fleet_errors_total":      c.Errors,
	} {
		if got := promtest.Find(t, samples, name).Value; int64(got) != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	for _, vm := range []string{"vm-a", `vm-"odd"`} {
		got := promtest.Find(t, samples, "vscsistats_fleet_vm_commands_total", "vm", vm).Value
		var want int64
		for _, s := range fresh.Snapshots() {
			if s.VM == vm {
				want += s.Commands
			}
		}
		if int64(got) != want {
			t.Errorf("vm_commands{%s} = %v, want %d", vm, got, want)
		}
	}
	for _, s := range samples {
		if s.Name == "vscsistats_fleet_vm_commands_total" && s.Label("vm") == vmName(2, 0) {
			t.Errorf("stale host's VM %s in the merged per-VM series", s.Label("vm"))
		}
	}

	// The merged histograms carry the cluster totals: _count of the
	// all-class series equals the merged histogram's sample count.
	for metric, name := range map[core.Metric]string{
		core.MetricIOLength:     "vscsistats_fleet_io_length_bytes",
		core.MetricSeekDistance: "vscsistats_fleet_seek_distance_sectors",
		core.MetricSeekWindowed: "vscsistats_fleet_seek_distance_windowed_sectors",
		core.MetricOutstanding:  "vscsistats_fleet_outstanding_ios",
		core.MetricLatency:      "vscsistats_fleet_io_latency_microseconds",
		core.MetricInterarrival: "vscsistats_fleet_io_interarrival_microseconds",
	} {
		got := promtest.Find(t, samples, name+"_count", "class", "all").Value
		if want := c.Histogram(metric, core.All).Total; int64(got) != want {
			t.Errorf("%s_count{all} = %v, want %d", name, got, want)
		}
	}
}

// TestFleetExpositionEmpty: an aggregator with no fresh cluster (no host
// registered, or every host stale) must still produce a parseable scrape
// — families present, no cluster samples, no histogram fragments.
func TestFleetExpositionEmpty(t *testing.T) {
	agg, clk := newTestAggregator(10 * time.Second)
	check := func(hosts float64) {
		t.Helper()
		samples := scrapeSource(t, agg)
		if got := promtest.Find(t, samples, "vscsistats_fleet_hosts").Value; got != hosts {
			t.Errorf("fleet_hosts = %v, want %v", got, hosts)
		}
		for _, s := range samples {
			if s.Name == "vscsistats_fleet_commands_total" || s.Name == "vscsistats_fleet_vm_commands_total" {
				t.Errorf("merged counter emitted with no fresh host: %s", s.Name)
			}
			if strings.Contains(s.Name, "fleet_io_length") {
				t.Errorf("histogram emitted with no fresh host: %s", s.Name)
			}
		}
	}
	check(0)
	if err := agg.Ingest(batchFor(makeRegistry(1, 1, 1, 20), "esx-01", 1), "push"); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Minute)
	check(1)
}

// TestAgentAndReExporterExposition: both senders write their Stats
// through the seam, labelled by who they are.
func TestAgentAndReExporterExposition(t *testing.T) {
	agg, _ := newTestAggregator(time.Hour)
	agent := NewAgent(makeRegistry(1, 1, 1, 20), AgentConfig{Host: "esx-01", Endpoint: "http://127.0.0.1:0/unreachable", MaxRetryQueue: 1})
	for i := 0; i < 2; i++ {
		if agent.PushNow() == nil {
			t.Fatal("push to an unreachable endpoint succeeded")
		}
	}
	samples := scrapeSource(t, agent)
	st := agent.Stats()
	if st.Errors == 0 || st.Dropped != 1 || st.QueueLen != 1 {
		t.Fatalf("agent stats after two failed pushes into a 1-deep queue: %+v", st)
	}
	for name, want := range map[string]int64{
		"vscsistats_fleet_agent_pushes_total":  0,
		"vscsistats_fleet_agent_errors_total":  st.Errors,
		"vscsistats_fleet_agent_dropped_total": 1,
		"vscsistats_fleet_agent_queue_length":  1,
		"vscsistats_fleet_agent_failures":      int64(st.Failures),
	} {
		if got := promtest.Find(t, samples, name, "host", "esx-01").Value; int64(got) != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}

	rex := NewReExporter(agg, ReExporterConfig{Region: "west", Upstream: "http://127.0.0.1:0/unreachable"})
	samples = scrapeSource(t, rex)
	if got := promtest.Find(t, samples, "vscsistats_fleet_tier_reexport_pushes_total", "region", "west").Value; got != 0 {
		t.Errorf("reexport pushes before any flush = %v", got)
	}
}
