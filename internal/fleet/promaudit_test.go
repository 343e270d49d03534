package fleet

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
)

// TestMetricsExpositionAudit scrapes a fully-loaded exporter — registry,
// fleet aggregator with a segment log, and the pipeline tracker — through
// the strict parser, which enforces HELP/TYPE before samples, no
// duplicate series, and complete cumulative histograms for EVERY
// vscsistats_* family in one place.
func TestMetricsExpositionAudit(t *testing.T) {
	obs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	agg, _, err := OpenAggregator(AggregatorConfig{
		StaleAfter: time.Hour, DataDir: t.TempDir(), Obs: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agg.Close()
	aggSrv := httptest.NewServer(agg)
	defer aggSrv.Close()
	reg := makeRegistry(1, 1, 2, 60)
	// Two current senders and one version-3 sender (legacy JSON payload).
	frames := map[string][]byte{
		"esx-old": encodeLegacyJSON(t, &Batch{Host: "esx-old", Seq: 1, Snapshots: makeRegistry(3, 1, 1, 20).Snapshots()}),
	}
	for _, b := range []*Batch{
		{Host: "esx-a", Seq: 1, Snapshots: reg.Snapshots()},
		{Host: "esx-b", Seq: 1, Snapshots: makeRegistry(2, 1, 1, 40).Snapshots()},
	} {
		frame, err := EncodeBatchBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		frames[b.Host] = frame
	}
	for host, frame := range frames {
		resp, err := http.Post(aggSrv.URL+"/fleet/push", ContentType, bytesReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("push for %s: status %d", host, resp.StatusCode)
		}
	}

	exp := telemetry.NewExporter(reg).WithFleet(agg).WithFleetObs(obs)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := promtest.Parse(t, string(body))

	// The series the dashboards key on made it out, with their labels:
	// the fleetobs families, and the decoded-frames counter whose json row
	// tells an operator when the legacy reader has nothing left to read.
	for _, want := range []struct {
		name   string
		labels []string
		min    float64
		exact  bool
	}{
		{"vscsistats_fleetobs_stage_duration_nanoseconds_count", []string{"scope", "aggregator", "stage", "ingest"}, 3, false},
		{"vscsistats_fleetobs_events_total", []string{"kind", "push"}, 3, false},
		{"vscsistats_fleet_frames_decoded_total", []string{"encoding", "binary"}, 2, true},
		{"vscsistats_fleet_frames_decoded_total", []string{"encoding", "json"}, 1, true},
	} {
		got := promtest.Find(t, samples, want.name, want.labels...).Value
		if got < want.min || (want.exact && got != want.min) {
			t.Errorf("%s%v = %v after 3 pushes (2 binary, 1 legacy), want %v", want.name, want.labels, got, want.min)
		}
	}

	// Every family in the scrape is namespaced.
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "vscsistats_") {
			t.Errorf("sample %q outside the vscsistats_ namespace", s.Name)
		}
	}
}

// TestScrapeVsIngestRace pounds the exporter with scrapes while pushes
// land concurrently, asserting (a) every in-flight exposition stays
// well-formed under the strict parser and (b) the traced-stage histogram
// _count is monotone non-decreasing across consecutive scrapes — the
// invariant a half-locked reader would break first.
func TestScrapeVsIngestRace(t *testing.T) {
	obs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	agg := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Obs: obs})
	reg := makeRegistry(1, 1, 2, 50)
	exp := telemetry.NewExporter(reg).WithFleet(agg).WithFleetObs(obs)
	srv := httptest.NewServer(exp)
	defer srv.Close()

	const pushers, pushesEach, scrapes = 2, 40, 25
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			host := fmt.Sprintf("esx-race-%d", p)
			hostReg := makeRegistry(p+3, 1, 1, 30)
			for i := 0; i < pushesEach; i++ {
				b := &Batch{Host: host, Seq: uint64(i + 1), Snapshots: hostReg.Snapshots()}
				if err := agg.Ingest(b, "push"); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				feed(hostReg.List()[0], i, 10)
			}
		}(p)
	}

	prev := -1.0
	for i := 0; i < scrapes; i++ {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		samples := promtest.Parse(t, string(body))
		cur := promtest.Find(t, samples,
			"vscsistats_fleetobs_stage_duration_nanoseconds_count",
			"scope", "aggregator", "stage", "ingest").Value
		if cur < prev {
			t.Fatalf("scrape %d: ingest _count went backwards (%v -> %v)", i, prev, cur)
		}
		prev = cur
	}
	wg.Wait()

	// One more scrape after the dust settles: total must equal pushes.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	final := promtest.Find(t, promtest.Parse(t, string(body)),
		"vscsistats_fleetobs_stage_duration_nanoseconds_count",
		"scope", "aggregator", "stage", "ingest").Value
	if want := float64(pushers * pushesEach); final != want {
		t.Errorf("final ingest _count = %v, want %v", final, want)
	}
}
