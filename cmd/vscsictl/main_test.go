package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/vscsim"
)

// startFleet boots a fully-featured aggregator (segment log, event ring,
// reference catalog) and populates it by running a small simulated
// datacenter through the real push path.
func startFleet(t *testing.T) (*httptest.Server, *vscsim.Inventory) {
	t.Helper()
	cat, err := vscsim.ReferenceCatalog(1234)
	if err != nil {
		t.Fatal(err)
	}
	agg, _, err := fleet.OpenAggregator(fleet.AggregatorConfig{
		StaleAfter: time.Hour,
		DataDir:    t.TempDir(),
		Obs:        fleetobs.New(fleetobs.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	agg.SetCatalog(cat)
	srv := httptest.NewServer(agg)
	t.Cleanup(srv.Close)

	inv := vscsim.NewInventory(vscsim.Config{Seed: 42, Hosts: 4, VMsPerHost: 3, Intensity: 4})
	sim, err := vscsim.New(inv, vscsim.SimConfig{Push: srv.URL + "/fleet/push"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunVirtual(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sim.PushAll(); err != nil {
		t.Fatal(err)
	}
	return srv, inv
}

// runCtl invokes the CLI entry point with -server prepended.
func runCtl(srv *httptest.Server, args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(append([]string{"-server", srv.URL}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

// mustRun fails the test unless the invocation exits 0.
func mustRun(t *testing.T, srv *httptest.Server, args ...string) string {
	t.Helper()
	code, out, errw := runCtl(srv, args...)
	if code != 0 {
		t.Fatalf("vscsictl %v exited %d: %s", args, code, errw)
	}
	return out
}

func TestVscsictl(t *testing.T) {
	srv, inv := startFleet(t)
	someVM := inv.Hosts[1].VMs[2].Name

	t.Run("hosts", func(t *testing.T) {
		out := mustRun(t, srv, "hosts")
		for _, want := range []string{"HOST", "LVL", "LEAVES", "esx-0001", "esx-0004", "push", "4 hosts (0 stale), 4 leaves folded"} {
			if !strings.Contains(out, want) {
				t.Errorf("hosts output missing %q:\n%s", want, out)
			}
		}
		var hosts []fleet.HostStatus
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "hosts")), &hosts); err != nil {
			t.Fatal(err)
		}
		if len(hosts) != 4 || hosts[0].Host != "esx-0001" || hosts[0].Snapshots == 0 {
			t.Fatalf("hosts -json: %+v", hosts)
		}
	})

	t.Run("shards", func(t *testing.T) {
		out := mustRun(t, srv, "shards")
		for _, want := range []string{"SHARD", "DELTAS", "CACHE-HITS", "16 shards: 4 hosts (0 stale)"} {
			if !strings.Contains(out, want) {
				t.Errorf("shards output missing %q:\n%s", want, out)
			}
		}
		var shards []fleet.ShardStatus
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "shards")), &shards); err != nil {
			t.Fatal(err)
		}
		hosts := 0
		for _, s := range shards {
			hosts += s.Hosts
		}
		if len(shards) != 16 || hosts != 4 {
			t.Fatalf("shards -json: %d shards, %d hosts", len(shards), hosts)
		}
		out = mustRun(t, srv, "shards", "-host", "esx-0001")
		if !strings.Contains(out, "esx-0001 routes to shard") {
			t.Errorf("shards -host output:\n%s", out)
		}
	})

	t.Run("log", func(t *testing.T) {
		out := mustRun(t, srv, "log")
		for _, want := range []string{"segments", "appends", "boot replay"} {
			if !strings.Contains(out, want) {
				t.Errorf("log output missing %q:\n%s", want, out)
			}
		}
		var st fleet.LogStats
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "log")), &st); err != nil {
			t.Fatal(err)
		}
		if !st.Enabled || st.Appends == 0 {
			t.Fatalf("log -json: %+v", st)
		}
	})

	t.Run("vms", func(t *testing.T) {
		out := mustRun(t, srv, "vms")
		for _, want := range []string{"VM", "COMMANDS", someVM, "12 VMs"} {
			if !strings.Contains(out, want) {
				t.Errorf("vms output missing %q:\n%s", want, out)
			}
		}
		var vms []*core.Snapshot
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "vms")), &vms); err != nil {
			t.Fatal(err)
		}
		if len(vms) != 12 {
			t.Fatalf("vms -json: got %d VMs", len(vms))
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		out := mustRun(t, srv, "snapshot")
		for _, want := range []string{"cluster", "commands", "ioLength", "latency", "microseconds"} {
			if !strings.Contains(out, want) {
				t.Errorf("snapshot output missing %q:\n%s", want, out)
			}
		}
		out = mustRun(t, srv, "snapshot", "-vm", someVM)
		if !strings.Contains(out, someVM) {
			t.Errorf("snapshot -vm output missing %q:\n%s", someVM, out)
		}
		var s core.Snapshot
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "snapshot")), &s); err != nil {
			t.Fatal(err)
		}
		if s.VM != "cluster" || s.Commands == 0 {
			t.Fatalf("snapshot -json: VM=%q Commands=%d", s.VM, s.Commands)
		}
		code, _, errw := runCtl(srv, "snapshot", "-vm", "nope")
		if code != 1 || !strings.Contains(errw, "unknown vm") {
			t.Fatalf("unknown vm: exit %d, stderr %q", code, errw)
		}
	})

	t.Run("history", func(t *testing.T) {
		out := mustRun(t, srv, "history")
		if !strings.Contains(out, "window") || !strings.Contains(out, "cluster") {
			t.Errorf("history output:\n%s", out)
		}
		out = mustRun(t, srv, "history", "-vms")
		if !strings.Contains(out, someVM) {
			t.Errorf("history -vms missing %q:\n%s", someVM, out)
		}
		var res fleet.HistoryResult
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "history")), &res); err != nil {
			t.Fatal(err)
		}
		if res.Hosts != 4 || res.Cluster == nil || res.Cluster.Commands == 0 {
			t.Fatalf("history -json: hosts=%d cluster=%+v", res.Hosts, res.Cluster)
		}
		// Relative windows resolve client-side: -from -1h covers the whole
		// log, -to -1h precedes it entirely.
		out = mustRun(t, srv, "history", "-from", "-1h")
		if !strings.Contains(out, "cluster") {
			t.Errorf("history -from -1h output:\n%s", out)
		}
		out = mustRun(t, srv, "history", "-to", "-1h")
		if !strings.Contains(out, "no state changed") {
			t.Errorf("history -to -1h output:\n%s", out)
		}
	})

	t.Run("catalog", func(t *testing.T) {
		out := mustRun(t, srv, "catalog")
		for _, want := range []string{"references:", "PERSONALITY", "mix:", "unclassified"} {
			if !strings.Contains(out, want) {
				t.Errorf("catalog output missing %q:\n%s", want, out)
			}
		}
		out = mustRun(t, srv, "catalog", "-vm", someVM)
		if !strings.Contains(out, "RANK") || !strings.Contains(out, someVM) {
			t.Errorf("catalog -vm output:\n%s", out)
		}
		var res fleet.CatalogResult
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "catalog")), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.References) == 0 || len(res.VMs)+res.Unclassified != 12 {
			t.Fatalf("catalog -json: %+v", res)
		}
	})

	t.Run("events", func(t *testing.T) {
		out := mustRun(t, srv, "events")
		if !strings.Contains(out, "KIND") || !strings.Contains(out, "shown of") {
			t.Errorf("events output:\n%s", out)
		}
		var res struct {
			Total  int64            `json:"total"`
			Events []fleetobs.Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(mustRun(t, srv, "-json", "events", "-limit", "5")), &res); err != nil {
			t.Fatal(err)
		}
		if res.Total == 0 || len(res.Events) == 0 || len(res.Events) > 5 {
			t.Fatalf("events -json: total=%d shown=%d", res.Total, len(res.Events))
		}
	})

	t.Run("watch", func(t *testing.T) {
		out := mustRun(t, srv, "watch", "-n", "2", "-interval", "1ms")
		if n := strings.Count(out, "hosts=4 (0 stale)"); n != 2 {
			t.Errorf("watch printed %d status lines, want 2:\n%s", n, out)
		}
		out = mustRun(t, srv, "-json", "watch", "-n", "2", "-interval", "1ms")
		sc := bufio.NewScanner(strings.NewReader(out))
		lines := 0
		for sc.Scan() {
			var tick watchTick
			if err := json.Unmarshal(sc.Bytes(), &tick); err != nil {
				t.Fatalf("watch NDJSON line %q: %v", sc.Text(), err)
			}
			if tick.Hosts != 4 || tick.Commands == 0 {
				t.Errorf("watch tick: %+v", tick)
			}
			lines++
		}
		if lines != 2 {
			t.Errorf("watch -json emitted %d lines, want 2", lines)
		}
	})

	t.Run("env-default-server", func(t *testing.T) {
		t.Setenv("VSCSICTL_SERVER", srv.URL)
		var out, errw bytes.Buffer
		if code := run([]string{"hosts"}, &out, &errw); code != 0 {
			t.Fatalf("exit %d: %s", code, errw.String())
		}
		if !strings.Contains(out.String(), "4 hosts") {
			t.Errorf("env server output:\n%s", out.String())
		}
	})
}

func TestVscsictlUsage(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	for _, c := range commands {
		if !strings.Contains(errw.String(), c.name) {
			t.Errorf("usage missing command %q:\n%s", c.name, errw.String())
		}
	}
	errw.Reset()
	if code := run([]string{"bogus"}, &out, &errw); code != 2 || !strings.Contains(errw.String(), "unknown command") {
		t.Fatalf("bogus command: exit %d, stderr %q", code, errw.String())
	}
	errw.Reset()
	if code := run([]string{"-server", "http://127.0.0.1:1", "hosts"}, &out, &errw); code != 1 {
		t.Fatalf("unreachable server: exit %d", code)
	}
}
