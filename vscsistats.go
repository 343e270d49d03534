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
// It exports what the examples, the commands, the benchmark and the
// package's own tests use; everything else lives in internal/ (the
// experiment harness regenerating the paper's tables and figures is
// cmd/experiments over internal/report).
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
//	gen := vscsistats.NewIometer(eng, vd.Disk, vscsistats.FourKSeqRead(32))
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
	"vscsistats/internal/fs"
	"vscsistats/internal/histogram"
	"vscsistats/internal/httpstats"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
	"vscsistats/internal/vscsim"
	"vscsistats/internal/workload"
)

// Version identifies the library release.
const Version = "1.0.0"

// --- Simulation engine ---

// Time is virtual time in nanoseconds; Engine is the discrete-event
// simulator every scenario runs on.
type (
	Time   = simclock.Time
	Engine = simclock.Engine
)

// Virtual time units.
const (
	Millisecond = simclock.Millisecond
	Second      = simclock.Second
)

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

// NewCollector creates a disabled collector for one virtual disk; attach it
// with Disk.AddObserver and toggle it with Enable/Disable.
func NewCollector(vm, disk string) *Collector { return core.NewCollector(vm, disk) }

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

// Command is one typed SCSI command; Disk is a virtual SCSI disk.
type (
	Command = scsi.Command
	Disk    = vscsi.Disk
)

// Read builds a block read command (LBA and length in 512-byte sectors).
func Read(lba uint64, blocks uint32) Command { return scsi.Read(lba, blocks) }

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

// --- Parallel multi-VM driver ---

// ParallelSim runs N independent simulation worlds (engine + host each) on
// separate goroutines with one shared collector registry; SimWorld is one
// such world. Use it for embarrassingly parallel multi-VM studies where
// each VM has its own datastore; VMs contending on one array still belong
// on a single engine.
type (
	ParallelSim = hypervisor.ParallelSim
	SimWorld    = hypervisor.World
)

// NewParallelSim creates n worlds and provisions each via setup. VM names
// must be unique across worlds (derive them from w.Index).
func NewParallelSim(n int, setup func(w *SimWorld)) *ParallelSim {
	return hypervisor.NewParallelSim(n, setup)
}

// --- Storage models ---

// ArrayConfig describes a storage array; the presets mirror the paper's
// testbeds (Table 1, §5.3).
type ArrayConfig = storage.ArrayConfig

// Symmetrix returns the big-cache RAID-5 reference array preset.
func Symmetrix(seed int64) ArrayConfig { return storage.SymmetrixConfig(seed) }

// CX3 returns the 2.5 GB-cache RAID-0 preset; CX3NoCache the same array
// with caching off (the Figure 6 worst case); LocalDisk a single spindle.
func CX3(seed int64) ArrayConfig { return storage.CX3Config(seed) }

// CX3NoCache is the CX3 with caching off (the Figure 6 worst case).
func CX3NoCache(seed int64) ArrayConfig { return storage.CX3NoCacheConfig(seed) }

// LocalDisk is a single direct-attached spindle with no array cache.
func LocalDisk(seed int64) ArrayConfig { return storage.LocalDiskConfig(seed) }

// --- Filesystem models ---

// FS is a mounted filesystem model.
type FS = fs.FS

// Snapshotter is implemented by filesystems with point-in-time snapshots
// (of the bundled models, only ZFS): assert `fsys.(vscsistats.Snapshotter)`.
type Snapshotter = fs.Snapshotter

// Filesystem constructors: update-in-place models (UFS, ext3, NTFS) and the
// copy-on-write ZFS model.
func NewUFS(eng *Engine, d *Disk) FS { return fs.NewPlain(eng, d, fs.UFSConfig()) }

// NewExt3 formats d with the Linux ext3 model (4 KB blocks + journal).
func NewExt3(eng *Engine, d *Disk) FS { return fs.NewPlain(eng, d, fs.Ext3Config()) }

// NewNTFSXP formats d with the Windows XP NTFS model (64 KB transfers).
func NewNTFSXP(eng *Engine, d *Disk) FS {
	return fs.NewPlain(eng, d, fs.NTFSXPConfig())
}

// NewNTFSVista formats d with the Vista NTFS model (1 MB transfers).
func NewNTFSVista(eng *Engine, d *Disk) FS {
	return fs.NewPlain(eng, d, fs.NTFSVistaConfig())
}

// NewZFS formats d with the copy-on-write ZFS model (128 KB records).
func NewZFS(eng *Engine, d *Disk) FS { return fs.NewZFS(eng, d, fs.DefaultZFSConfig()) }

// --- Workload generators ---

// Generator is a runnable workload; the concrete generators mirror §4–§5.
type (
	Generator      = workload.Generator
	Model          = workload.Model
	Filebench      = workload.Filebench
	DBT2           = workload.DBT2
	DBT2Config     = workload.DBT2Config
	FileCopy       = workload.FileCopy
	FileCopyConfig = workload.FileCopyConfig
	Iometer        = workload.Iometer
	AccessSpec     = workload.AccessSpec
)

// ParseModel parses the Filebench-style model language; OLTPModel returns
// the paper's OLTP personality at the given data/log sizes.
func ParseModel(src string) (*Model, error) { return workload.ParseModel(src) }

// OLTPModel is the paper's Filebench OLTP personality.
func OLTPModel(dataBytes, logBytes int64) *Model {
	return workload.OLTPModel(dataBytes, logBytes)
}

// NewFilebench interprets a model against a filesystem.
func NewFilebench(eng *Engine, fsys FS, m *Model, seed int64) *Filebench {
	return workload.NewFilebench(eng, fsys, m, seed)
}

// NewDBT2 builds the DBT-2/PostgreSQL model; DefaultDBT2Config mirrors the
// paper's setup.
func NewDBT2(eng *Engine, fsys FS, cfg DBT2Config) *DBT2 {
	return workload.NewDBT2(eng, fsys, cfg)
}

// DefaultDBT2Config mirrors the paper's DBT-2 setup, scaled.
func DefaultDBT2Config() DBT2Config { return workload.DefaultDBT2Config() }

// NewFileCopy builds a chunk-pipelined copy; the XP/Vista configs differ
// only in transfer size (64 KB vs 1 MB).
func NewFileCopy(eng *Engine, fsys FS, cfg FileCopyConfig) *FileCopy {
	return workload.NewFileCopy(eng, fsys, cfg)
}

// XPCopy is the Windows XP 64 KB copy-engine profile.
func XPCopy(fileBytes int64) FileCopyConfig { return workload.XPCopyConfig(fileBytes) }

// VistaCopy is the Windows Vista 1 MB copy-engine profile.
func VistaCopy(fileBytes int64) FileCopyConfig { return workload.VistaCopyConfig(fileBytes) }

// NewIometer drives a raw virtual disk with an access specification.
func NewIometer(eng *Engine, d *Disk, spec AccessSpec) *Iometer {
	return workload.NewIometer(eng, d, spec)
}

// Standard access specifications from the paper's evaluation.
func FourKSeqRead(outstanding int) AccessSpec { return workload.FourKSeqRead(outstanding) }

// EightKRandomRead is the §5.3 8 KB random-read spec at 32 OIO.
func EightKRandomRead() AccessSpec { return workload.EightKRandomRead() }

// EightKSeqRead is the §5.3 8 KB sequential-read spec at 32 OIO.
func EightKSeqRead() AccessSpec { return workload.EightKSeqRead() }

// Synth generates an I/O stream matching a collected snapshot's
// distributions — synthesizing a workload from its characterization rather
// than from a trace (the §6 "synthetic workloads require detailed
// knowledge" gap, closed).
type Synth = workload.Synth

// NewSynthFromSnapshot builds a snapshot-driven generator against a raw
// virtual disk.
func NewSynthFromSnapshot(eng *Engine, d *Disk, s *Snapshot, seed int64) (*Synth, error) {
	return workload.NewSynth(eng, d, s, seed)
}

// --- Observability (internal/telemetry) ---

// MetricsExporter serves GET /metrics in the Prometheus text format;
// LifecycleTracer keeps a ring of issue/complete/control events with
// Chrome trace JSON export (GET /debug/trace); SnapshotStreamer samples
// the registry on an interval and serves per-disk time series plus a live
// SSE feed (GET /watch); StatsOptions mounts them on the stats handler.
type (
	MetricsExporter  = telemetry.Exporter
	LifecycleTracer  = telemetry.LifecycleTracer
	SnapshotStreamer = telemetry.Streamer
	StatsOptions     = httpstats.Options
)

// NewMetricsExporter builds a Prometheus exporter over a registry. Chain
// .WithDiskStats(host or parallel sim) to add vSCSI-layer disk counters,
// and .With(...) for every component that writes its own series: a
// FleetAggregator (vscsistats_fleet_*), FleetReExporter
// (vscsistats_fleet_tier_reexport_*), FleetAgent (vscsistats_fleet_agent_*),
// FleetObsTracker (vscsistats_fleetobs_*) or DatacenterSim
// (vscsistats_vscsim_*).
func NewMetricsExporter(reg *Registry) *MetricsExporter { return telemetry.NewExporter(reg) }

// NewLifecycleTracer builds a ring tracer retaining the last capacity
// events; attach it with Disk.AddObserver and feed control-plane verbs to
// Control.
func NewLifecycleTracer(capacity int) *LifecycleTracer {
	return telemetry.NewLifecycleTracer(capacity)
}

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
	FleetHostStatus       = fleet.HostStatus
	FleetReplayStats      = fleet.ReplayStats
)

// NewFleetAgent builds a fleet agent over the registry; Start launches the
// push loop, PushNow pushes synchronously.
func NewFleetAgent(reg *Registry, cfg FleetAgentConfig) *FleetAgent {
	return fleet.NewAgent(reg, cfg)
}

// NewFleetAggregator builds a memory-only fleet aggregator; mount it via
// StatsOptions.Fleet and attach it with MetricsExporter.With for the
// merged fleet_* Prometheus series.
func NewFleetAggregator(cfg FleetAggregatorConfig) *FleetAggregator {
	return fleet.NewAggregator(cfg)
}

// OpenFleetAggregator builds a fleet aggregator backed by the crash-safe
// segment log under cfg.DataDir: existing segments replay on boot (so a
// restart recovers the fleet without agent resyncs, truncating a crash-torn
// tail frame), every state-changing batch is appended from then on, and
// the retained log answers GET /fleet/history range queries. With an empty
// DataDir this is exactly NewFleetAggregator.
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

// --- Tracing and offline analysis ---

// Tracer captures completed commands; TraceRecord is one command.
type (
	Tracer      = trace.Tracer
	TraceRecord = trace.Record
)

// Replay feeds a trace back through a collector; Analyze computes exact
// (unbinned) statistics; SeekLatencyCorrelation builds the §3.6 2-D view.
func Replay(records []TraceRecord, col *Collector) { trace.Replay(records, col) }

// Analyze recomputes exact (unbinned) workload statistics from a trace.
func Analyze(records []TraceRecord) *analysis.Report {
	return analysis.Analyze(records)
}

// SeekLatencyCorrelation builds the §3.6 seek-distance x latency view.
func SeekLatencyCorrelation(records []TraceRecord) *histogram.Snapshot2D {
	return analysis.SeekLatency(records)
}

// Burstiness summarizes a trace's arrival process (peak-to-mean, index of
// dispersion, Hurst-exponent estimate) at the given window size.
type Burstiness = analysis.Burstiness

// BurstinessOf computes the arrival-process summary over a trace.
func BurstinessOf(records []TraceRecord, windowMicros int64) Burstiness {
	return analysis.BurstinessOf(records, windowMicros)
}

// AggregateSnapshots merges per-disk snapshots into one rollup view.
func AggregateSnapshots(vm, disk string, snaps ...*Snapshot) *Snapshot {
	return core.Aggregate(vm, disk, snaps...)
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
