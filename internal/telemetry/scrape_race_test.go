package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vscsistats/internal/core"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/workload"
)

// hostSet serves the vSCSI-layer counters of several hosts; VM names are
// unique across them, so the first match wins.
type hostSet []*hypervisor.Host

func (hs hostSet) DiskCounters(vm, disk string) (issued, completed, errored uint64, inflight int64, ok bool) {
	for _, h := range hs {
		if issued, completed, errored, inflight, ok = h.DiskCounters(vm, disk); ok {
			return
		}
	}
	return 0, 0, 0, 0, false
}

// TestScrapeWhileParallelSimRuns is the package's -race stress test: eight
// hosts, each on its own engine and goroutine, simulate I/O into
// collectors one registry serves, while HTTP clients hammer /metrics, and
// every single scrape must be a valid, internally consistent exposition
// (strict parser) — no torn histograms, no duplicate series, no panics.
func TestScrapeWhileParallelSimRuns(t *testing.T) {
	const worlds = 8
	reg := core.NewRegistry()
	hosts := make(hostSet, worlds)
	for i := range hosts {
		eng := simclock.NewEngine()
		h := hypervisor.NewHost(eng)
		h.AddDatastore("ds", storage.LocalDiskConfig(int64(i)+1))
		vd, err := h.CreateVM(fmt.Sprintf("vm%d", i)).AddDisk(hypervisor.DiskSpec{
			Name: "scsi0:0", Datastore: "ds", CapacitySectors: 1 << 21,
		})
		if err != nil {
			t.Fatal(err)
		}
		vd.Collector.Enable()
		reg.Register(vd.Collector)
		spec := workload.EightKRandomRead()
		spec.Seed = int64(i) + 100
		gen := workload.NewIometer(eng, vd.Disk, spec)
		eng.At(0, func(simclock.Time) { gen.Start() })
		hosts[i] = h
	}

	exp := NewExporter(reg).WithDiskStats(hosts)
	srv := httptest.NewServer(exp)
	t.Cleanup(srv.Close)

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return ""
		}
		return string(body)
	}

	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		var sims sync.WaitGroup
		for _, h := range hosts {
			sims.Add(1)
			go func() {
				defer sims.Done()
				h.Engine().RunUntil(1 * simclock.Second)
			}()
		}
		sims.Wait()
	}()

	// Scraper goroutines collect raw bodies; parsing happens afterwards on
	// the test goroutine (parseProm may Fatal, which must not run off it).
	var wg sync.WaitGroup
	scraped := make([][]string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-simDone:
					return
				default:
				}
				if text := scrape(); text != "" {
					scraped[g] = append(scraped[g], text)
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, texts := range scraped {
		total += len(texts)
		for _, text := range texts {
			parseProm(t, text)
		}
	}
	if total == 0 {
		t.Fatal("no scrape completed while the simulation ran")
	}
	t.Logf("validated %d concurrent scrapes", total)

	// Final scrape: every world did I/O and the disk-level counters agree
	// with the hypervisor's view.
	samples := parseProm(t, scrape())
	for i := 0; i < worlds; i++ {
		vm := fmt.Sprintf("vm%d", i)
		cmds := findSample(t, samples, "vscsistats_commands_total", "vm", vm)
		if cmds.value <= 0 {
			t.Errorf("%s: no commands recorded", vm)
		}
		issued, completed, _, _, ok := hosts.DiskCounters(vm, "scsi0:0")
		if !ok {
			t.Fatalf("%s: DiskCounters not found", vm)
		}
		di := findSample(t, samples, "vscsistats_disk_issued_total", "vm", vm)
		if di.value != float64(issued) {
			t.Errorf("%s: exported issued %v != live %d", vm, di.value, issued)
		}
		if completed == 0 {
			t.Errorf("%s: nothing completed", vm)
		}
	}
	if s := findSample(t, samples, "vscsistats_collectors"); s.value != worlds {
		t.Errorf("collectors = %v, want %d", s.value, worlds)
	}
}
