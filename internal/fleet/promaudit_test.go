package fleet_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vscsistats/internal/fleet"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
	"vscsistats/internal/vscsim"
)

// rig is every component that writes /metrics series, wired the way a
// region node is: one agent and a two-host vscsim.Sim pushing into an
// aggregator with a segment log, which a re-exporter feeds upstream, all
// observed by one tracker — with traffic on every loss path (a refused
// frame, one that fails its checksum, a duplicate delta, a delta from an
// unknown host, a logged frame corrupted under a history query), so the
// series below are checked on non-zero values.
type rig struct {
	agent *fleet.Agent
	agg   *fleet.Aggregator
	rex   *fleet.ReExporter
	exp   *telemetry.Exporter
}

// diskCounters is a fixed DiskStatsSource, so the vSCSI-layer families
// are in the scrape too.
type diskCounters struct{}

func (diskCounters) DiskCounters(vm, disk string) (issued, completed, errored uint64, inflight int64, ok bool) {
	return 60, 59, 1, 1, true
}

func newRig(t *testing.T) *rig {
	t.Helper()
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	obs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	global := serve(fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour}))
	dir := t.TempDir()
	agg, _, err := fleet.OpenAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour, DataDir: dir, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agg.Close() })
	push := serve(agg) + "/fleet/push"
	post := func(frame []byte, want int) {
		t.Helper()
		resp, err := http.Post(push, fleet.ContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("push: status %d, want %d", resp.StatusCode, want)
		}
	}

	// One agent: a full push, then a delta.
	reg := fleet.MakeRegistry(1, 1, 2, 60)
	agent := fleet.NewAgent(reg, fleet.AgentConfig{Host: "esx-a", Endpoint: push, Obs: obs})
	for i := 0; i < 2; i++ {
		if err := agent.PushNow(); err != nil {
			t.Fatal(err)
		}
		fleet.Feed(reg.List()[0], 5+i, 10)
	}
	// A version-3 sender (pre-binary JSON payload), a frame that is not
	// one, a redelivered delta and a delta from a host never seen.
	v3, err := os.ReadFile("testdata/frame_v3_json.bin")
	if err != nil {
		t.Fatal(err)
	}
	post(v3, http.StatusBadRequest)
	post([]byte("not a frame"), http.StatusBadRequest)
	flipped, err := fleet.EncodeBatchBytes(&fleet.Batch{Host: "esx-a", Seq: 9, Snapshots: reg.Snapshots()})
	if err != nil {
		t.Fatal(err)
	}
	flipped[len(flipped)/2] ^= 1
	post(flipped, http.StatusBadRequest)
	if err := agg.Ingest(&fleet.Batch{Host: "esx-a", Seq: 1, Delta: true}, "push"); err != nil {
		t.Fatal(err)
	}
	if err := agg.Ingest(&fleet.Batch{Host: "esx-ghost", Seq: 2, BaseSeq: 1, Delta: true}, "push"); err == nil {
		t.Fatal("delta from an unknown host was applied")
	}
	sim, err := vscsim.New(vscsim.NewInventory(vscsim.Config{Seed: 1, Hosts: 2, VMsPerHost: 1}), vscsim.SimConfig{Push: push})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunVirtual(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.PushAll(); err != nil {
		t.Fatal(err)
	}
	// A bit of the first logged frame's payload rots on disk: the next
	// history query drops that frame.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	seg[16+int(binary.BigEndian.Uint32(seg[8:12]))+int(binary.BigEndian.Uint32(seg[12:16]))/2] ^= 1
	if err := os.WriteFile(segs[0], seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := agg.History(time.Unix(0, 0), time.Now()); err != nil || res.Dropped != 1 {
		t.Fatalf("history over the rotted frame: %+v, %v; want 1 dropped", res, err)
	}
	rex := fleet.NewReExporter(agg, fleet.ReExporterConfig{Region: "west", Upstream: global + "/fleet/push", Obs: obs})
	if err := rex.ReExportNow(); err != nil {
		t.Fatal(err)
	}
	return &rig{
		agent: agent, agg: agg, rex: rex,
		exp: telemetry.NewExporter(reg).WithDiskStats(diskCounters{}).With(agg, rex, agent, obs, sim),
	}
}

// scrape GETs /metrics and runs the body through the strict parser, which
// enforces HELP/TYPE before samples, no duplicate series, and complete
// cumulative histograms for EVERY vscsistats_* family in one place.
func scrape(t *testing.T, url string) (string, []promtest.Sample) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), promtest.Parse(t, string(body))
}

// carrier names the series that carries one Stats field: a family and,
// where the field is one labelled sample of it, that label. A field that
// is the sum of a per-shard (or per-cause) family is carried by the
// family's samples summed. key marks a field that is itself the label
// its row's samples carry.
type carrier struct {
	family string
	label  [2]string
	key    string
}

var carriers = map[string]carrier{
	"AgentStats.Pushes":      {family: "vscsistats_fleet_agent_pushes_total"},
	"AgentStats.DeltaPushes": {family: "vscsistats_fleet_agent_delta_pushes_total"},
	"AgentStats.Heartbeats":  {family: "vscsistats_fleet_agent_heartbeats_total"},
	"AgentStats.Errors":      {family: "vscsistats_fleet_agent_errors_total"},
	"AgentStats.Retries":     {family: "vscsistats_fleet_agent_retries_total"},
	"AgentStats.Dropped":     {family: "vscsistats_fleet_agent_dropped_total"},
	"AgentStats.Resyncs":     {family: "vscsistats_fleet_agent_resyncs_total"},
	"AgentStats.SentBytes":   {family: "vscsistats_fleet_agent_sent_bytes_total"},
	"AgentStats.QueueLen":    {family: "vscsistats_fleet_agent_queue_length"},
	"AgentStats.Failures":    {family: "vscsistats_fleet_agent_failures"},

	"AggregatorStats.Hosts":                {family: "vscsistats_fleet_hosts"},
	"AggregatorStats.StaleHosts":           {family: "vscsistats_fleet_hosts_stale"},
	"AggregatorStats.Batches":              {family: "vscsistats_fleet_shard_batches_total"},
	"AggregatorStats.Rejected":             {family: "vscsistats_fleet_rejected_total"},
	"AggregatorStats.RejectedChecksum":     {family: "vscsistats_fleet_rejected_checksum_total"},
	"AggregatorStats.RecvBytes":            {family: "vscsistats_fleet_recv_bytes_total"},
	"AggregatorStats.DeltasApplied":        {family: "vscsistats_fleet_shard_deltas_applied_total"},
	"AggregatorStats.Duplicates":           {family: "vscsistats_fleet_shard_duplicates_total"},
	"AggregatorStats.Resyncs":              {family: "vscsistats_fleet_resyncs_total"},
	"AggregatorStats.ResyncSeqGap":         {family: "vscsistats_fleet_resyncs_total", label: [2]string{"cause", "seq-gap"}},
	"AggregatorStats.ResyncUnknownHost":    {family: "vscsistats_fleet_resyncs_total", label: [2]string{"cause", "unknown-host"}},
	"AggregatorStats.ResyncUnknownDisk":    {family: "vscsistats_fleet_resyncs_total", label: [2]string{"cause", "unknown-disk"}},
	"AggregatorStats.ResyncLayoutMismatch": {family: "vscsistats_fleet_resyncs_total", label: [2]string{"cause", "layout-mismatch"}},
	"AggregatorStats.ResyncBootChanged":    {family: "vscsistats_fleet_resyncs_total", label: [2]string{"cause", "boot-changed"}},
	"AggregatorStats.MergeCacheHits":       {family: "vscsistats_fleet_shard_merge_cache_hits_total"},
	"AggregatorStats.MergeCacheMisses":     {family: "vscsistats_fleet_shard_merge_cache_misses_total"},

	"ShardStatus.Shard":            {family: "vscsistats_fleet_shard_hosts", key: "shard"},
	"ShardStatus.Hosts":            {family: "vscsistats_fleet_shard_hosts"},
	"ShardStatus.StaleHosts":       {family: "vscsistats_fleet_shard_hosts_stale"},
	"ShardStatus.Batches":          {family: "vscsistats_fleet_shard_batches_total"},
	"ShardStatus.DeltasApplied":    {family: "vscsistats_fleet_shard_deltas_applied_total"},
	"ShardStatus.Duplicates":       {family: "vscsistats_fleet_shard_duplicates_total"},
	"ShardStatus.Resyncs":          {family: "vscsistats_fleet_shard_resyncs_total"},
	"ShardStatus.MergeCacheHits":   {family: "vscsistats_fleet_shard_merge_cache_hits_total"},
	"ShardStatus.MergeCacheMisses": {family: "vscsistats_fleet_shard_merge_cache_misses_total"},

	"LogStats.Segments":        {family: "vscsistats_fleet_log_segments"},
	"LogStats.Bytes":           {family: "vscsistats_fleet_log_bytes"},
	"LogStats.Appends":         {family: "vscsistats_fleet_log_appends_total"},
	"LogStats.AppendBytes":     {family: "vscsistats_fleet_log_append_bytes_total"},
	"LogStats.AppendErrors":    {family: "vscsistats_fleet_log_append_errors_total"},
	"LogStats.Fsyncs":          {family: "vscsistats_fleet_log_fsyncs_total"},
	"LogStats.Rotations":       {family: "vscsistats_fleet_log_rotations_total"},
	"LogStats.Compactions":     {family: "vscsistats_fleet_log_compactions_total"},
	"LogStats.SegmentsRetired": {family: "vscsistats_fleet_log_segments_retired_total"},
	"LogStats.FramesReplayed":  {family: "vscsistats_fleet_log_frames_replayed_total"},
	"LogStats.TornTails":       {family: "vscsistats_fleet_log_torn_tails_total"},
	"LogStats.HistoryDropped":  {family: "vscsistats_fleet_log_history_dropped_total"},

	"TierStatus.Level":      {family: "vscsistats_fleet_tier_hosts", key: "level"},
	"TierStatus.Hosts":      {family: "vscsistats_fleet_tier_hosts"},
	"TierStatus.StaleHosts": {family: "vscsistats_fleet_tier_hosts_stale"},
	"TierStatus.Leaves":     {family: "vscsistats_fleet_tier_leaves"},

	"ReExporterStats.Level":       {family: "vscsistats_fleet_tier_reexport_level"},
	"ReExporterStats.Pushes":      {family: "vscsistats_fleet_tier_reexport_pushes_total"},
	"ReExporterStats.DeltaPushes": {family: "vscsistats_fleet_tier_reexport_delta_pushes_total"},
	"ReExporterStats.Heartbeats":  {family: "vscsistats_fleet_tier_reexport_heartbeats_total"},
	"ReExporterStats.FullPushes":  {family: "vscsistats_fleet_tier_reexport_full_pushes_total"},
	"ReExporterStats.Resyncs":     {family: "vscsistats_fleet_tier_reexport_resyncs_total"},
	"ReExporterStats.Errors":      {family: "vscsistats_fleet_tier_reexport_errors_total"},
	"ReExporterStats.SentBytes":   {family: "vscsistats_fleet_tier_reexport_sent_bytes_total"},
}

// auditFields walks every exported numeric field of a Stats struct read
// before and after the scrape and requires a series that carries it:
// named in carriers, present in the scrape under the row's own labels,
// and valued inside [before, after] (a scrape moves the merge-cache
// counters itself; everything else in the rig is quiescent).
func auditFields(t *testing.T, samples []promtest.Sample, before, after any, row ...string) {
	t.Helper()
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		f := b.Type().Field(i)
		if !f.IsExported() || !(b.Field(i).CanInt() || b.Field(i).CanUint() || b.Field(i).CanFloat()) {
			continue
		}
		name := b.Type().Name() + "." + f.Name
		c, ok := carriers[name]
		if !ok {
			t.Errorf("%s reaches no /metrics series: add a table row beside the field, then name it in carriers", name)
			continue
		}
		lo, hi := b.Field(i).Convert(reflect.TypeFor[float64]()).Float(), a.Field(i).Convert(reflect.TypeFor[float64]()).Float()
		want := row
		if c.key != "" {
			want = []string{c.key, strconv.Itoa(int(lo))}
		} else if c.label[0] != "" {
			want = append(append([]string(nil), row...), c.label[:]...)
		}
		var sum float64
		var n int
	next:
		for _, s := range samples {
			if s.Name != c.family {
				continue
			}
			for j := 0; j < len(want); j += 2 {
				if s.Label(want[j]) != want[j+1] {
					continue next
				}
			}
			sum += s.Value
			n++
		}
		switch {
		case n == 0:
			t.Errorf("%s: no %s%v sample in the scrape", name, c.family, want)
		case c.key == "" && (sum < lo || sum > hi):
			t.Errorf("%s = %v..%v but %s%v carries %v", name, lo, hi, c.family, want, sum)
		}
	}
}

// TestMetricsExpositionAudit scrapes the full rig and holds the whole
// exposition to three standards at once: the strict parser; the golden
// list generated from this rig before the components wrote their own
// series (every family keeps its name, TYPE, HELP and label names;
// additions are fine); and the field walk — no exported numeric field of
// any fleet Stats struct without a series.
func TestMetricsExpositionAudit(t *testing.T) {
	r := newRig(t)
	srv := httptest.NewServer(r.exp)
	defer srv.Close()

	agentBefore, aggBefore, shardsBefore := r.agent.Stats(), r.agg.Stats(), r.agg.Shards()
	logBefore, tiersBefore, rexBefore := r.agg.LogStats(), fleet.Tiers(r.agg), r.rex.Stats()
	text, samples := scrape(t, srv.URL)

	// The series the dashboards key on made it out, with their labels, and
	// the rig's loss paths are all non-zero, so the walk below is not
	// comparing zeros.
	for _, want := range []struct {
		name   string
		labels []string
		min    float64
		exact  bool
	}{
		{"vscsistats_fleetobs_stage_duration_nanoseconds_count", []string{"scope", "aggregator", "stage", "ingest"}, 3, false},
		{"vscsistats_fleetobs_events_total", []string{"kind", "push"}, 3, false},
		{"vscsistats_fleet_rejected_total", nil, 3, true},
		{"vscsistats_fleet_rejected_checksum_total", nil, 1, true},
		{"vscsistats_fleet_log_history_dropped_total", nil, 1, true},
		{"vscsistats_fleet_resyncs_total", []string{"cause", "unknown-host"}, 1, true},
		{"vscsistats_fleet_agent_delta_pushes_total", []string{"host", "esx-a"}, 1, true},
		{"vscsistats_fleet_tier_reexport_full_pushes_total", []string{"region", "west"}, 1, true},
		{"vscsistats_vscsim_pushes_total", nil, 2, true},
	} {
		got := promtest.Find(t, samples, want.name, want.labels...).Value
		if got < want.min || (want.exact && got != want.min) {
			t.Errorf("%s%v = %v, want %v", want.name, want.labels, got, want.min)
		}
	}
	var duplicates float64
	for _, s := range samples {
		if !strings.HasPrefix(s.Name, "vscsistats_") {
			t.Errorf("sample %q outside the vscsistats_ namespace", s.Name)
		}
		if s.Name == "vscsistats_fleet_shard_duplicates_total" {
			duplicates += s.Value
		}
	}
	if duplicates != 1 {
		t.Errorf("shard duplicates sum to %v, want the one redelivered delta", duplicates)
	}

	got := familyList(text, samples)
	golden, err := os.ReadFile("testdata/metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, _, _ := strings.Cut(line, "\t")
		if got[name] != line {
			t.Errorf("family changed under the golden list:\n want %q\n  got %q", line, got[name])
		}
	}

	auditFields(t, samples, agentBefore, r.agent.Stats(), "host", "esx-a")
	auditFields(t, samples, aggBefore, r.agg.Stats())
	auditFields(t, samples, logBefore, r.agg.LogStats())
	auditFields(t, samples, rexBefore, r.rex.Stats(), "region", "west")
	for i, after := range r.agg.Shards() {
		auditFields(t, samples, shardsBefore[i], after, "shard", strconv.Itoa(i))
	}
	for i, after := range fleet.Tiers(r.agg) {
		auditFields(t, samples, tiersBefore[i], after, "level", strconv.Itoa(after.Level))
	}
}

// familyList renders one exposition as the golden list's lines, keyed by
// family: name, TYPE, sorted label names (le included) and HELP,
// tab-separated.
func familyList(text string, samples []promtest.Sample) map[string]string {
	types, helps, labels := map[string]string{}, map[string]string{}, map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			helps[name], labels[name] = help, map[string]bool{}
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
		}
	}
	for _, s := range samples {
		family := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.Name, suffix); types[base] == "histogram" {
				family = base
			}
		}
		for k := range s.Labels {
			labels[family][k] = true
		}
	}
	out := map[string]string{}
	for name, help := range helps {
		names := make([]string, 0, len(labels[name]))
		for k := range labels[name] {
			names = append(names, k)
		}
		sort.Strings(names)
		out[name] = name + "\t" + types[name] + "\t" + strings.Join(names, ",") + "\t" + help
	}
	return out
}

// TestScrapeVsIngestRace pounds the exporter with scrapes while pushes
// land concurrently, asserting (a) every in-flight exposition stays
// well-formed under the strict parser and (b) the traced-stage histogram
// _count is monotone non-decreasing across consecutive scrapes — the
// invariant a half-locked reader would break first.
func TestScrapeVsIngestRace(t *testing.T) {
	obs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	agg := fleet.NewAggregator(fleet.AggregatorConfig{StaleAfter: time.Hour, Obs: obs})
	reg := fleet.MakeRegistry(1, 1, 2, 50)
	srv := httptest.NewServer(telemetry.NewExporter(reg).With(agg, obs))
	defer srv.Close()
	ingestCount := func() float64 {
		_, samples := scrape(t, srv.URL)
		return promtest.Find(t, samples,
			"vscsistats_fleetobs_stage_duration_nanoseconds_count",
			"scope", "aggregator", "stage", "ingest").Value
	}

	const pushers, pushesEach, scrapes = 2, 40, 25
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			host := fmt.Sprintf("esx-race-%d", p)
			hostReg := fleet.MakeRegistry(p+3, 1, 1, 30)
			for i := 0; i < pushesEach; i++ {
				b := &fleet.Batch{Host: host, Seq: uint64(i + 1), Snapshots: hostReg.Snapshots()}
				if err := agg.Ingest(b, "push"); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				fleet.Feed(hostReg.List()[0], i, 10)
			}
		}(p)
	}

	prev := -1.0
	for i := 0; i < scrapes; i++ {
		cur := ingestCount()
		if cur < prev {
			t.Fatalf("scrape %d: ingest _count went backwards (%v -> %v)", i, prev, cur)
		}
		prev = cur
	}
	wg.Wait()

	// One more scrape after the dust settles: total must equal pushes.
	if final, want := ingestCount(), float64(pushers*pushesEach); final != want {
		t.Errorf("final ingest _count = %v, want %v", final, want)
	}
}
