// Package vscsistats is a from-scratch reproduction of "Easy and Efficient
// Disk I/O Workload Characterization in VMware ESX Server" (IISWC 2007) —
// the system that shipped as VMware's vscsiStats.
//
// The package is a facade over the implementation packages:
//
//   - a deterministic discrete-event engine (virtual time),
//   - a virtual SCSI device layer with observer hooks,
//   - the online histogram characterization service (the paper's
//     contribution): I/O length, seek distance (plain and windowed),
//     outstanding I/Os, latency and inter-arrival histograms, split by
//     reads/writes, in O(1) time and O(m) space per command,
//   - a vSCSI command tracing framework with offline analysis,
//   - behavioural filesystem models (UFS, ZFS, ext3, NTFS),
//   - workload generators (a Filebench-style model language with the OLTP
//     personality, a DBT-2/TPC-C engine, file-copy pipelines, Iometer),
//   - storage array models (Symmetrix-like, CLARiiON CX3-like), and
//   - the fleet tier: agents, sharded aggregators, re-exporters and a
//     datacenter simulator, observable through one /metrics seam.
//
// It exports every name a command (cmd/...) or examples/quickstart uses,
// and the types those names take or return, so a library user can still
// name them; TestFacadeExportsOnlyWhatIsUsed holds it to that rule.
// Everything else lives in internal/ (the experiment harness regenerating
// the paper's tables and figures is cmd/experiments over internal/report).
//
// Quick start:
//
//	eng := vscsistats.NewEngine()
//	host := vscsistats.NewHost(eng)
//	host.AddDatastore("sym", vscsistats.Symmetrix(1))
//	vd, _ := host.CreateVM("vm1").AddDisk(vscsistats.DiskSpec{
//		Name: "scsi0:0", Datastore: "sym", CapacitySectors: 6 << 21,
//	})
//	vd.Collector.Enable()
//	gen := vscsistats.NewIometer(eng, vd.Disk, vscsistats.EightKRandomRead())
//	gen.Start()
//	eng.RunUntil(10 * vscsistats.Second)
//	fmt.Println(vd.Collector.Snapshot().Summary())
package vscsistats

import (
	"net/http"
	"time"

	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/histogram"
	"vscsistats/internal/httpstats"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/vscsi"
	"vscsistats/internal/vscsim"
	"vscsistats/internal/workload"
)

// --- Simulation engine ---

// Time is virtual time in nanoseconds; Engine is the discrete-event
// simulator every scenario runs on.
type (
	Time   = simclock.Time
	Engine = simclock.Engine
)

// Second is one second of virtual time.
const Second = simclock.Second

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return simclock.NewEngine() }

// --- The characterization service (the paper's contribution) ---

// Collector is the per-virtual-disk online histogram service; Snapshot is
// an immutable copy of everything it has gathered.
type (
	Collector        = core.Collector
	Snapshot         = core.Snapshot
	Metric           = core.Metric
	Class            = core.Class
	Fingerprint      = core.Fingerprint
	Registry         = core.Registry
	IntervalRecorder = core.IntervalRecorder
)

// Metric and class selectors.
const (
	MetricIOLength     = core.MetricIOLength
	MetricSeekDistance = core.MetricSeekDistance
	MetricSeekWindowed = core.MetricSeekWindowed
	MetricOutstanding  = core.MetricOutstanding
	MetricLatency      = core.MetricLatency
	MetricInterarrival = core.MetricInterarrival

	All    = core.All
	Reads  = core.Reads
	Writes = core.Writes
)

// NewRegistry creates the host-wide collector registry behind the
// enable/disable command-line utility.
func NewRegistry() *Registry { return core.NewRegistry() }

// NewIntervalRecorder snapshots a collector every interval, producing the
// paper's "histogram over time" series (Figures 4(d), 6(c)).
func NewIntervalRecorder(eng *Engine, col *Collector, interval Time) *IntervalRecorder {
	return core.NewIntervalRecorder(eng, col, interval)
}

// FingerprintOf classifies a snapshot and derives placement recommendations
// (the §7 future-work feature).
func FingerprintOf(s *Snapshot) Fingerprint { return core.FingerprintOf(s) }

// --- Histograms ---

// HistogramSnapshot is an immutable copy of one online histogram.
type HistogramSnapshot = histogram.Snapshot

// RenderHistogramComparison renders snapshots side by side (the layout of
// the paper's overlaid figures).
func RenderHistogramComparison(title string, snaps ...*HistogramSnapshot) string {
	return histogram.RenderCompare(title, snaps...)
}

// HistogramDistance is the total-variation distance between two snapshots'
// normalized distributions, in [0,1].
func HistogramDistance(a, b *HistogramSnapshot) float64 { return analysis.Distance(a, b) }

// --- SCSI and the virtual SCSI layer ---

// Disk is a virtual SCSI disk.
type Disk = vscsi.Disk

// --- Hypervisor host ---

// Host assembles datastores, VMs and virtual disks; Vdisk bundles a disk
// with its collector and optional tracer.
type (
	Host     = hypervisor.Host
	Vdisk    = hypervisor.Vdisk
	DiskSpec = hypervisor.DiskSpec
)

// NewHost creates an empty host on the engine.
func NewHost(eng *Engine) *Host { return hypervisor.NewHost(eng) }

// --- Storage models ---

// ArrayConfig describes a storage array; the presets mirror the paper's
// testbeds (Table 1, §5.3).
type ArrayConfig = storage.ArrayConfig

// Symmetrix returns the big-cache RAID-5 reference array preset.
func Symmetrix(seed int64) ArrayConfig { return storage.SymmetrixConfig(seed) }

// --- Workload generators ---

// Generator is a runnable workload; Iometer drives a raw virtual disk
// with an AccessSpec.
type (
	Generator  = workload.Generator
	Iometer    = workload.Iometer
	AccessSpec = workload.AccessSpec
)

// NewIometer drives a raw virtual disk with an access specification.
func NewIometer(eng *Engine, d *Disk, spec AccessSpec) *Iometer {
	return workload.NewIometer(eng, d, spec)
}

// EightKRandomRead is the §5.3 8 KB random-read spec at 32 OIO.
func EightKRandomRead() AccessSpec { return workload.EightKRandomRead() }

// --- Observability (internal/telemetry) ---

// MetricsExporter serves GET /metrics in the Prometheus text format;
// SnapshotStreamer samples the registry on an interval and serves per-disk
// time series plus a live SSE feed (GET /watch); StatsOptions mounts them,
// and a scenario disk's command tracer (Vdisk.Tracer, GET /debug/trace),
// on the stats handler.
type (
	MetricsExporter  = telemetry.Exporter
	SnapshotStreamer = telemetry.Streamer
	StatsOptions     = httpstats.Options
)

// NewMetricsExporter builds a Prometheus exporter over a registry. Chain
// .WithDiskStats(host) to add vSCSI-layer disk counters, and .With(...)
// for every component that writes its own series: a
// FleetAggregator (vscsistats_fleet_*), FleetReExporter
// (vscsistats_fleet_tier_reexport_*), FleetAgent (vscsistats_fleet_agent_*),
// FleetObsTracker (vscsistats_fleetobs_*) or DatacenterSim
// (vscsistats_vscsim_*).
func NewMetricsExporter(reg *Registry) *MetricsExporter { return telemetry.NewExporter(reg) }

// NewSnapshotStreamer samples reg every interval (wall clock), retaining
// depth interval deltas per disk. Call Start/Stop, or Tick directly for
// deterministic sampling.
func NewSnapshotStreamer(reg *Registry, interval time.Duration, depth int) *SnapshotStreamer {
	return telemetry.NewStreamer(reg, interval, depth)
}

// NewStatsHandlerWith exposes a registry over HTTP with the observability
// surfaces mounted: /metrics, /debug/trace, /watch and per-disk /series.
func NewStatsHandlerWith(reg *Registry, opts StatsOptions) http.Handler {
	return httpstats.NewWith(reg, opts)
}

// --- Fleet federation (internal/fleet) ---

// FleetAgent pushes a registry's snapshots to an aggregator on an
// interval (with timeout, backoff + jitter and a bounded retry queue) —
// full state first, then interval deltas against the last acknowledged
// push, resyncing automatically when the aggregator loses the chain;
// FleetAggregator ingests pushes (its only ingest road), tracks per-host
// liveness and merges per-host snapshots into per-VM and cluster-wide
// histograms, bin-exact, sharded by consistent host hash with per-shard
// merge memoization.
type (
	FleetAgent            = fleet.Agent
	FleetAgentConfig      = fleet.AgentConfig
	FleetAggregator       = fleet.Aggregator
	FleetAggregatorConfig = fleet.AggregatorConfig
	FleetReplayStats      = fleet.ReplayStats
)

// NewFleetAgent builds a fleet agent over the registry; Start launches the
// push loop, PushNow pushes synchronously.
func NewFleetAgent(reg *Registry, cfg FleetAgentConfig) *FleetAgent {
	return fleet.NewAgent(reg, cfg)
}

// OpenFleetAggregator builds a fleet aggregator backed by the crash-safe
// segment log under cfg.DataDir: existing segments replay on boot (so a
// restart recovers the fleet without agent resyncs, truncating a crash-torn
// tail frame), every state-changing batch is appended from then on, and
// the retained log answers GET /fleet/history range queries. With an empty
// DataDir the aggregator is memory-only.
func OpenFleetAggregator(cfg FleetAggregatorConfig) (*FleetAggregator, FleetReplayStats, error) {
	return fleet.OpenAggregator(cfg)
}

// FleetReExporter makes aggregators composable into trees of arbitrary
// depth (agents → region → global): it re-exports an aggregator's merged
// per-shard state upstream through the same push protocol the aggregator
// ingests, as one synthetic host per region. Upstream wire bytes and
// ingest scale with regions changed, not leaf hosts; quiet intervals send
// liveness-only heartbeats, and a restarted tier resyncs through the
// boot-incarnation 409 protocol exactly like an agent.
type (
	FleetReExporter       = fleet.ReExporter
	FleetReExporterConfig = fleet.ReExporterConfig
)

// NewFleetReExporter wraps the aggregator with an upstream re-export
// loop; Start launches it, ReExportNow flushes synchronously, Stop ends
// it with one final flush. Attach it with MetricsExporter.With for the
// vscsistats_fleet_tier_reexport_* series.
func NewFleetReExporter(agg *FleetAggregator, cfg FleetReExporterConfig) *FleetReExporter {
	return fleet.NewReExporter(agg, cfg)
}

// --- Fleet pipeline observability (internal/fleetobs) ---

// FleetObsTracker characterizes the characterizer: per-stage latency
// histograms over the fleet pipeline (capture, encode, push, decode,
// ingest, log append, fsync, compaction, replay, …), a bounded ring of
// structural events (rotations, resyncs with cause, torn tails,
// compactions), and a top-K slowest-operations ring. Hand one to
// FleetAgentConfig.Obs or FleetAggregatorConfig.Obs, attach it with
// MetricsExporter.With for the vscsistats_fleetobs_* series, and mount
// ChromeTraceHandler at StatsOptions.Trace. A nil tracker is fully
// inert.
type (
	FleetObsTracker = fleetobs.Tracker
	FleetObsConfig  = fleetobs.Config
)

// NewFleetObsTracker builds a tracker; the zero config gives a
// 1024-event ring, a top-64 slow ring and 1-in-64 hot-path sampling.
func NewFleetObsTracker(cfg FleetObsConfig) *FleetObsTracker {
	return fleetobs.New(cfg)
}

// --- Datacenter simulation (internal/vscsim) ---

// SimInventory is a deterministic synthetic datacenter generated from a
// single seed: hosts × VMs × disks, each VM assigned a workload
// personality from the fleet population with heavy-tailed intensity.
// DatacenterSim runs every host in the inventory as its own wall-paced
// simulated world — engine, hypervisor, open-loop generators and a real
// fleet agent — multiplexed across worker goroutines in one process, so
// a thousand and more hosts exercise a real sharded aggregator.
// FleetPersonality is one named class in the workload population: an
// open-loop paced access template with a population weight.
type (
	SimInventory        = vscsim.Inventory
	SimInventoryConfig  = vscsim.Config
	DatacenterSim       = vscsim.Sim
	DatacenterSimConfig = vscsim.SimConfig
	FleetPersonality    = workload.FleetPersonality
)

// NewSimInventory generates the synthetic datacenter described by cfg —
// a pure function of cfg.Seed.
func NewSimInventory(cfg SimInventoryConfig) *SimInventory { return vscsim.NewInventory(cfg) }

// NewDatacenterSim builds every host world in the inventory; Start runs
// them wall-paced at cfg.Speed, RunVirtual advances them deterministically.
func NewDatacenterSim(inv *SimInventory, cfg DatacenterSimConfig) (*DatacenterSim, error) {
	return vscsim.New(inv, cfg)
}

// SimReferenceCatalog builds a §7 classification catalog with one
// reference snapshot per personality, each from a short deterministic
// single-VM simulation — install it on an aggregator (SetCatalog) to
// serve GET /fleet/catalog.
func SimReferenceCatalog(seed int64, personalities ...FleetPersonality) (*WorkloadCatalog, error) {
	return vscsim.ReferenceCatalog(seed, personalities...)
}

// WorkloadCatalog classifies snapshots against named reference
// characterizations by histogram distance (§7's automatic categorization).
type (
	WorkloadCatalog   = analysis.Catalog
	WorkloadReference = analysis.Reference
)

// NewWorkloadCatalog builds a classification catalog.
func NewWorkloadCatalog(refs ...WorkloadReference) (*WorkloadCatalog, error) {
	return analysis.NewCatalog(refs...)
}
