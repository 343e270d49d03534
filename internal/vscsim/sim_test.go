package vscsim

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
)

func newTestAggregator(t testing.TB) (*fleet.Aggregator, *httptest.Server) {
	t.Helper()
	agg := fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Minute})
	srv := httptest.NewServer(agg)
	t.Cleanup(srv.Close)
	return agg, srv
}

// localCluster merges every simulated collector directly — the ground
// truth the aggregator's view must equal bin-exactly.
func localCluster(s *Sim) *core.Snapshot {
	var parts []*core.Snapshot
	for _, h := range s.hosts {
		parts = append(parts, h.host.Registry().Snapshots()...)
	}
	return core.Aggregate("cluster", "*", parts...)
}

// TestSimDeterministicAggregatorState is the satellite determinism check:
// the same seed advanced the same virtual duration lands bit-identical
// state in a fresh aggregator, every time, regardless of worker count.
func TestSimDeterministicAggregatorState(t *testing.T) {
	run := func(workers int) (*core.Snapshot, int) {
		agg, srv := newTestAggregator(t)
		inv := NewInventory(Config{Seed: 11, Hosts: 8, VMsPerHost: 4, Intensity: 4})
		sim, err := New(inv, SimConfig{Push: srv.URL + "/fleet/push", Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunVirtual(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sim.PushAll(); err != nil {
			t.Fatal(err)
		}
		cluster := agg.ClusterSnapshot(false)
		if !cluster.StateEquals(localCluster(sim)) {
			t.Fatal("aggregator cluster view diverged from the simulated ground truth")
		}
		return cluster, len(agg.Hosts())
	}
	a, hostsA := run(1)
	b, hostsB := run(4)
	if hostsA != 8 || hostsB != 8 {
		t.Fatalf("aggregator knows %d/%d hosts, want 8", hostsA, hostsB)
	}
	if !a.StateEquals(b) {
		t.Fatal("same seed and virtual duration produced different aggregator state")
	}
	if a.Commands == 0 {
		t.Fatal("no commands simulated")
	}
}

func TestSimDifferentSeedsDiverge(t *testing.T) {
	state := func(seed int64) *core.Snapshot {
		inv := NewInventory(Config{Seed: seed, Hosts: 4, VMsPerHost: 4, Intensity: 4})
		sim, err := New(inv, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunVirtual(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return localCluster(sim)
	}
	if state(1).StateEquals(state(2)) {
		t.Fatal("different seeds produced identical datacenter state")
	}
}

// TestSimSmoke is the CI smoke: a few hundred wall-paced hosts pushing
// through the real agent path into a real sharded aggregator, then a
// deterministic settle push and a bin-exact merge check.
func TestSimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-paced smoke skipped in -short")
	}
	agg, srv := newTestAggregator(t)
	inv := NewInventory(Config{Seed: 5, Hosts: 256, VMsPerHost: 4})
	sim, err := New(inv, SimConfig{
		Push:         srv.URL + "/fleet/push",
		PushInterval: 500 * time.Millisecond,
		Speed:        10,
		Tick:         50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	time.Sleep(1500 * time.Millisecond)
	sim.Stop()
	if err := sim.PushAll(); err != nil {
		t.Fatal(err)
	}
	hosts := agg.Hosts()
	if len(hosts) != 256 {
		t.Fatalf("aggregator knows %d hosts, want 256", len(hosts))
	}
	for _, h := range hosts {
		if h.Stale {
			t.Fatalf("host %s went stale during the smoke window", h.Host)
		}
	}
	if !agg.ClusterSnapshot(false).StateEquals(localCluster(sim)) {
		t.Fatal("aggregator cluster view diverged from the simulated ground truth")
	}
	st := sim.Stats()
	if st.Hosts != 256 || st.VMs != 1024 || st.Disks != 1024 {
		t.Fatalf("stats sized wrong: %+v", st)
	}
	if st.Virtual <= 0 || st.Wall <= 0 || st.Speed <= 0 {
		t.Fatalf("pacing stats missing: virtual=%v wall=%v speed=%v", st.Virtual, st.Wall, st.Speed)
	}
	if st.Agent.Pushes < int64(len(hosts)) {
		t.Fatalf("only %d pushes across %d hosts", st.Agent.Pushes, len(hosts))
	}
}

func TestSimRunVirtualRejectedWhileRunning(t *testing.T) {
	inv := NewInventory(Config{Seed: 3, Hosts: 2, VMsPerHost: 2})
	sim, err := New(inv, SimConfig{Tick: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sim.Start()
	defer sim.Stop()
	if err := sim.RunVirtual(time.Second); err != ErrRunning {
		t.Fatalf("RunVirtual while running = %v, want ErrRunning", err)
	}
}

// BenchmarkSimPushAll256 measures sim ingest throughput: 256 hosts' full
// state pushed through the wire codec into a sharded aggregator.
func BenchmarkSimPushAll256(b *testing.B) {
	agg, srv := newTestAggregator(b)
	inv := NewInventory(Config{Seed: 9, Hosts: 256, VMsPerHost: 4})
	sim, err := New(inv, SimConfig{Push: srv.URL + "/fleet/push"})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.RunVirtual(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.PushAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := agg.Stats()
	if st.Hosts != 256 {
		b.Fatalf("aggregator knows %d hosts", st.Hosts)
	}
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "hostpush/s")
}

// TestMetricsSimSeries runs the exposition with a real simulator attached
// through the strict parser and checks every vscsistats_vscsim_* series
// carries the world's Stats verbatim.
func TestMetricsSimSeries(t *testing.T) {
	_, srv := newTestAggregator(t)
	sim, err := New(NewInventory(Config{Seed: 5, Hosts: 3, VMsPerHost: 2, DisksPerVM: 2, Intensity: 4}), SimConfig{Push: srv.URL + "/fleet/push"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunVirtual(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.PushAll(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := telemetry.NewExporter(core.NewRegistry()).With(sim).Write(&sb); err != nil {
		t.Fatal(err)
	}
	samples := promtest.Parse(t, sb.String())
	st := sim.Stats()
	if st.Ops == 0 || st.Bytes == 0 || st.Agent.Pushes != 3 {
		t.Fatalf("world did nothing worth exporting: %+v", st)
	}
	for name, want := range map[string]float64{
		"vscsistats_vscsim_hosts":             3,
		"vscsistats_vscsim_vms":               6,
		"vscsistats_vscsim_disks":             12,
		"vscsistats_vscsim_virtual_seconds":   20,
		"vscsistats_vscsim_wall_seconds":      st.Wall.Seconds(),
		"vscsistats_vscsim_speed":             st.Speed,
		"vscsistats_vscsim_ops_total":         float64(st.Ops),
		"vscsistats_vscsim_bytes_total":       float64(st.Bytes),
		"vscsistats_vscsim_errors_total":      float64(st.Errors),
		"vscsistats_vscsim_throttled_total":   float64(st.Throttled),
		"vscsistats_vscsim_pushes_total":      3,
		"vscsistats_vscsim_push_errors_total": float64(st.Agent.Errors),
	} {
		if got := promtest.Find(t, samples, name).Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
