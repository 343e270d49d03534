package telemetry

import (
	"strconv"
	"strings"

	"vscsistats/internal/core"
)

// FleetHost is one host's liveness as seen by a fleet aggregator.
type FleetHost struct {
	Host       string
	Stale      bool
	AgeSeconds float64
	Snapshots  int
	Batches    int64
	Seq        uint64
}

// FleetSource reports a fleet aggregator's state: per-host liveness plus
// the merged cluster-wide and per-VM snapshots. fleet.Aggregator
// implements it; the indirection keeps this package free of a fleet
// dependency (mirroring DiskStatsSource).
type FleetSource interface {
	FleetHosts() []FleetHost
	FleetCluster() *core.Snapshot
	FleetVMs() []*core.Snapshot
}

// FleetShard is one shard's slice of a sharded fleet aggregator.
type FleetShard struct {
	Index            int
	Hosts            int
	StaleHosts       int
	Batches          int64
	DeltasApplied    int64
	Resyncs          int64
	MergeCacheHits   int64
	MergeCacheMisses int64
}

// FleetShardSource is the optional sharding extension of FleetSource: a
// source that also reports per-shard ingest and merge-cache counters.
// Implemented by the sharded fleet.Aggregator; the exporter type-asserts,
// so non-sharded sources keep working unchanged.
type FleetShardSource interface {
	FleetShards() []FleetShard
}

// FleetLog is the segment log's size and maintenance counters.
type FleetLog struct {
	Segments        int
	Bytes           int64
	Appends         int64
	AppendBytes     int64
	AppendErrors    int64
	Fsyncs          int64
	Rotations       int64
	Compactions     int64
	SegmentsRetired int64
	FramesReplayed  int64
	TornTails       int64
}

// FleetLogSource is the optional durability extension of FleetSource: a
// source backed by a segment log also reports the log's size and
// maintenance counters (false when the aggregator is memory-only, which
// suppresses the series entirely). The exporter type-asserts, mirroring
// FleetShardSource.
type FleetLogSource interface {
	FleetLogStats() (FleetLog, bool)
}

// FleetFrames counts the wire frames a fleet aggregator decoded (pushes,
// pulls and boot replay) by payload encoding.
type FleetFrames struct {
	Binary int64
	JSON   int64
}

// FleetFramesSource is the optional codec extension of FleetSource: a
// source that reports which payload encodings it is still being sent, so
// an operator can see when the legacy JSON frames have stopped arriving.
// The exporter type-asserts, mirroring FleetShardSource.
type FleetFramesSource interface {
	FleetFramesDecoded() FleetFrames
}

// FleetTier aggregates one federation level of an aggregator's host set:
// level 0 entries are leaf agents, level 1 entries are regional
// aggregators re-exporting their merges, and so on up the tree.
type FleetTier struct {
	Level      int
	Hosts      int
	StaleHosts int
	Leaves     int
}

// FleetTierSource is the optional federation extension of FleetSource: a
// source that also groups its hosts by federation level. The exporter
// type-asserts, mirroring FleetShardSource.
type FleetTierSource interface {
	FleetTiers() []FleetTier
}

// FleetReExport is a mid-tier re-exporter's counters: the upstream push
// health of one aggregator feeding another.
type FleetReExport struct {
	Region      string
	Upstream    string
	Level       int
	Pushes      int64
	DeltaPushes int64
	Heartbeats  int64
	FullPushes  int64
	Resyncs     int64
	Errors      int64
	SentBytes   int64
}

// FleetReExportSource reports a re-exporter's counters; fleet.ReExporter
// implements it. Attached separately from FleetSource because the
// re-exporter wraps the aggregator rather than being one.
type FleetReExportSource interface {
	FleetReExportStats() FleetReExport
}

// WithFleetReExport attaches a mid-tier re-exporter and returns the
// exporter. Scrapes then include the vscsistats_fleet_tier_reexport_*
// series.
func (e *Exporter) WithFleetReExport(src FleetReExportSource) *Exporter {
	e.fleetReExport = src
	return e
}

// WithFleet attaches a fleet aggregator and returns the exporter. Scrapes
// then include the vscsistats_fleet_* series: host liveness gauges, merged
// cluster counters, per-VM command counters, and the six paper histograms
// merged cluster-wide (bin-exact sums of every fresh host's bins).
func (e *Exporter) WithFleet(src FleetSource) *Exporter {
	e.fleet = src
	return e
}

// writeFleet emits the vscsistats_fleet_* series.
func (e *Exporter) writeFleet(p *promWriter) {
	if e.fleet == nil {
		return
	}
	hosts := e.fleet.FleetHosts()
	var stale int
	for _, h := range hosts {
		if h.Stale {
			stale++
		}
	}
	p.family("vscsistats_fleet_hosts", "gauge", "Hosts known to the fleet aggregator.")
	p.sample("vscsistats_fleet_hosts", "", strconv.Itoa(len(hosts)))
	p.family("vscsistats_fleet_hosts_stale", "gauge", "Known hosts past the liveness horizon (excluded from merges).")
	p.sample("vscsistats_fleet_hosts_stale", "", strconv.Itoa(stale))

	p.family("vscsistats_fleet_host_up", "gauge", "1 when the host's newest batch is within the liveness horizon.")
	for _, h := range hosts {
		v := "1"
		if h.Stale {
			v = "0"
		}
		p.sample("vscsistats_fleet_host_up", hostLabels(h.Host), v)
	}
	p.family("vscsistats_fleet_host_age_seconds", "gauge", "Age of the host's newest batch.")
	for _, h := range hosts {
		p.sample("vscsistats_fleet_host_age_seconds", hostLabels(h.Host), formatFloat(h.AgeSeconds))
	}
	p.family("vscsistats_fleet_host_snapshots", "gauge", "Virtual disks in the host's newest batch.")
	for _, h := range hosts {
		p.sample("vscsistats_fleet_host_snapshots", hostLabels(h.Host), strconv.Itoa(h.Snapshots))
	}
	p.family("vscsistats_fleet_host_batches_total", "counter", "Batches ingested from the host, retries included.")
	for _, h := range hosts {
		p.sample("vscsistats_fleet_host_batches_total", hostLabels(h.Host), strconv.FormatInt(h.Batches, 10))
	}

	if src, ok := e.fleet.(FleetShardSource); ok {
		writeFleetShards(p, src.FleetShards())
	}
	if src, ok := e.fleet.(FleetTierSource); ok {
		writeFleetTiers(p, src.FleetTiers())
	}
	if src, ok := e.fleet.(FleetLogSource); ok {
		if log, enabled := src.FleetLogStats(); enabled {
			writeFleetLog(p, log)
		}
	}
	if src, ok := e.fleet.(FleetFramesSource); ok {
		frames := src.FleetFramesDecoded()
		p.family("vscsistats_fleet_frames_decoded_total", "counter", "Wire frames decoded from pushes, pulls and boot replay, by payload encoding.")
		p.sample("vscsistats_fleet_frames_decoded_total", `encoding="binary"`, strconv.FormatInt(frames.Binary, 10))
		p.sample("vscsistats_fleet_frames_decoded_total", `encoding="json"`, strconv.FormatInt(frames.JSON, 10))
	}

	cluster := e.fleet.FleetCluster()
	vms := e.fleet.FleetVMs()

	type counter struct {
		name, help string
		get        func(*core.Snapshot) int64
	}
	counters := []counter{
		{"vscsistats_fleet_commands_total", "Commands observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Commands }},
		{"vscsistats_fleet_reads_total", "Reads observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.NumReads }},
		{"vscsistats_fleet_writes_total", "Writes observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.NumWrites }},
		{"vscsistats_fleet_read_bytes_total", "Bytes read across all fresh hosts.", func(s *core.Snapshot) int64 { return s.ReadBytes }},
		{"vscsistats_fleet_write_bytes_total", "Bytes written across all fresh hosts.", func(s *core.Snapshot) int64 { return s.WriteBytes }},
		{"vscsistats_fleet_errors_total", "Errored commands across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Errors }},
	}
	for _, c := range counters {
		p.family(c.name, "counter", c.help)
		if cluster != nil {
			p.sample(c.name, "", strconv.FormatInt(c.get(cluster), 10))
		}
	}

	p.family("vscsistats_fleet_vm_commands_total", "counter", "Commands per VM merged across all fresh hosts.")
	for _, s := range vms {
		p.sample("vscsistats_fleet_vm_commands_total", `vm="`+escapeLabel(s.VM)+`"`, strconv.FormatInt(s.Commands, 10))
	}

	if cluster == nil {
		return
	}
	for _, fam := range workloadFamilies {
		name := "vscsistats_fleet" + strings.TrimPrefix(fam.name, "vscsistats")
		p.family(name, "histogram", "Cluster-wide merge: "+fam.help)
		classes := []core.Class{core.All, core.Reads, core.Writes}
		if fam.windowedOnly {
			classes = classes[:1]
		}
		for _, cl := range classes {
			h := cluster.Histogram(fam.metric, cl)
			if h == nil {
				continue
			}
			p.histogram(name, `class="`+cl.String()+`"`, h)
		}
	}
}

// writeFleetShards emits the vscsistats_fleet_shard_* series: the sharded
// aggregator's per-shard host counts, delta-protocol counters and merge
// cache hit rates, labelled shard="N".
func writeFleetShards(p *promWriter, shards []FleetShard) {
	type series struct {
		name, typ, help string
		get             func(FleetShard) int64
	}
	families := []series{
		{"vscsistats_fleet_shard_hosts", "gauge", "Hosts routed to the shard.",
			func(s FleetShard) int64 { return int64(s.Hosts) }},
		{"vscsistats_fleet_shard_hosts_stale", "gauge", "Shard hosts past the liveness horizon.",
			func(s FleetShard) int64 { return int64(s.StaleHosts) }},
		{"vscsistats_fleet_shard_batches_total", "counter", "Batches ingested by the shard.",
			func(s FleetShard) int64 { return s.Batches }},
		{"vscsistats_fleet_shard_deltas_applied_total", "counter", "Delta batches applied onto stored state.",
			func(s FleetShard) int64 { return s.DeltasApplied }},
		{"vscsistats_fleet_shard_resyncs_total", "counter", "Delta batches refused pending a full-state resync.",
			func(s FleetShard) int64 { return s.Resyncs }},
		{"vscsistats_fleet_shard_merge_cache_hits_total", "counter", "Scrapes served from the shard's memoized merge.",
			func(s FleetShard) int64 { return s.MergeCacheHits }},
		{"vscsistats_fleet_shard_merge_cache_misses_total", "counter", "Scrapes that re-merged the shard's hosts.",
			func(s FleetShard) int64 { return s.MergeCacheMisses }},
	}
	for _, f := range families {
		p.family(f.name, f.typ, f.help)
		for _, s := range shards {
			p.sample(f.name, `shard="`+strconv.Itoa(s.Index)+`"`, strconv.FormatInt(f.get(s), 10))
		}
	}
}

// writeFleetTiers emits the vscsistats_fleet_tier_* series: the
// aggregator's host set grouped by federation level, labelled level="N".
// A flat fleet exposes one level-0 row; a federated one shows each tier's
// host and folded-leaf counts, so a region dropping out of the global
// view is visible as a leaves dip at level 1.
func writeFleetTiers(p *promWriter, tiers []FleetTier) {
	type series struct {
		name, typ, help string
		get             func(FleetTier) int64
	}
	families := []series{
		{"vscsistats_fleet_tier_hosts", "gauge", "Hosts reporting at the federation level.",
			func(t FleetTier) int64 { return int64(t.Hosts) }},
		{"vscsistats_fleet_tier_hosts_stale", "gauge", "Level hosts past the liveness horizon.",
			func(t FleetTier) int64 { return int64(t.StaleHosts) }},
		{"vscsistats_fleet_tier_leaves", "gauge", "Leaf hosts folded into the level's entries.",
			func(t FleetTier) int64 { return int64(t.Leaves) }},
	}
	for _, f := range families {
		p.family(f.name, f.typ, f.help)
		for _, t := range tiers {
			p.sample(f.name, `level="`+strconv.Itoa(t.Level)+`"`, strconv.FormatInt(f.get(t), 10))
		}
	}
	p.family("vscsistats_fleet_tier_depth", "gauge", "Federation levels present in the host set.")
	p.sample("vscsistats_fleet_tier_depth", "", strconv.Itoa(len(tiers)))
}

// writeFleetReExport emits the vscsistats_fleet_tier_reexport_* series:
// the upstream push health of a mid-tier aggregator feeding another.
func (e *Exporter) writeFleetReExport(p *promWriter) {
	if e.fleetReExport == nil {
		return
	}
	st := e.fleetReExport.FleetReExportStats()
	labels := `region="` + escapeLabel(st.Region) + `"`
	p.family("vscsistats_fleet_tier_reexport_level", "gauge", "Federation level the re-exporter stamps on upstream frames.")
	p.sample("vscsistats_fleet_tier_reexport_level", labels, strconv.Itoa(st.Level))
	type series struct {
		name, help string
		value      int64
	}
	families := []series{
		{"vscsistats_fleet_tier_reexport_pushes_total", "Re-export frames delivered upstream.", st.Pushes},
		{"vscsistats_fleet_tier_reexport_delta_pushes_total", "Re-export frames delivered as interval deltas.", st.DeltaPushes},
		{"vscsistats_fleet_tier_reexport_heartbeats_total", "Liveness-only duplicate frames sent when nothing changed.", st.Heartbeats},
		{"vscsistats_fleet_tier_reexport_full_pushes_total", "Re-export frames delivered as full state.", st.FullPushes},
		{"vscsistats_fleet_tier_reexport_resyncs_total", "Upstream delta refusals answered with full state.", st.Resyncs},
		{"vscsistats_fleet_tier_reexport_errors_total", "Failed upstream delivery attempts.", st.Errors},
		{"vscsistats_fleet_tier_reexport_sent_bytes_total", "Wire bytes delivered upstream.", st.SentBytes},
	}
	for _, f := range families {
		p.family(f.name, "counter", f.help)
		p.sample(f.name, labels, strconv.FormatInt(f.value, 10))
	}
}

// writeFleetLog emits the vscsistats_fleet_log_* series: the aggregator's
// segment-log footprint and maintenance counters (append/fsync/rotation/
// compaction activity, retention drops, and the boot replay's recovery
// numbers).
func writeFleetLog(p *promWriter, log FleetLog) {
	type series struct {
		name, typ, help string
		value           int64
	}
	families := []series{
		{"vscsistats_fleet_log_segments", "gauge", "Live segment files in the aggregator's durability log.", int64(log.Segments)},
		{"vscsistats_fleet_log_bytes", "gauge", "Bytes held by the segment log.", log.Bytes},
		{"vscsistats_fleet_log_appends_total", "counter", "Frames appended to the segment log.", log.Appends},
		{"vscsistats_fleet_log_append_bytes_total", "counter", "Bytes appended to the segment log.", log.AppendBytes},
		{"vscsistats_fleet_log_append_errors_total", "counter", "Appends absorbed after an encode or I/O failure.", log.AppendErrors},
		{"vscsistats_fleet_log_fsyncs_total", "counter", "Batched fsyncs issued by the segment log.", log.Fsyncs},
		{"vscsistats_fleet_log_rotations_total", "counter", "Segment rotations.", log.Rotations},
		{"vscsistats_fleet_log_compactions_total", "counter", "Shard chains rewritten as one full-frame segment.", log.Compactions},
		{"vscsistats_fleet_log_segments_retired_total", "counter", "Sealed segments dropped by retention.", log.SegmentsRetired},
		{"vscsistats_fleet_log_frames_replayed_total", "counter", "Frames recovered by boot replay.", log.FramesReplayed},
		{"vscsistats_fleet_log_torn_tails_total", "counter", "Crash-torn tail frames truncated away at replay.", log.TornTails},
	}
	for _, f := range families {
		p.family(f.name, f.typ, f.help)
		p.sample(f.name, "", strconv.FormatInt(f.value, 10))
	}
}

func hostLabels(host string) string {
	return `host="` + escapeLabel(host) + `"`
}
