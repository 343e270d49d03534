package vscsistats

import (
	"fmt"
	"sort"

	"vscsistats/internal/fs"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/workload"
)

// Scenario is a pre-wired stack — array, VM, virtual disk with collector
// (and a command tracer, when asked for), filesystem (when applicable) and
// workload generator — for one of the paper's named workloads. It backs the
// command-line tools and gives library users a one-call way to generate
// realistic traffic.
type Scenario struct {
	Name string
	Eng  *Engine
	Host *Host
	VD   *Vdisk
	Gen  Generator

	// Warmup is run (with stats disabled) before measurement.
	Warmup Time
}

// ScenarioConfig tunes scenario construction.
type ScenarioConfig struct {
	// Seed drives all randomness.
	Seed int64
	// DataBytes scales the scenario's primary dataset (default 1 GB).
	DataBytes int64
	// TraceCapacity, if positive, attaches a command tracer (VD.Tracer)
	// retaining that many entries. Zero attaches none: a trace is O(n)
	// space, which the histograms exist to avoid.
	TraceCapacity int
	// Datastore overrides the backing array preset (default Symmetrix).
	Datastore *ArrayConfig
}

// scenarioBuilders maps names to constructors.
var scenarioBuilders = map[string]func(*Scenario, ScenarioConfig) error{
	"iometer-4k-seq":  buildIometer(workload.FourKSeqRead(32)),
	"iometer-8k-rand": buildIometer(workload.EightKRandomRead()),
	"iometer-8k-seq":  buildIometer(workload.EightKSeqRead()),
	"oltp-ufs":        buildFilebench(oltpModel, plainFS(fs.UFSConfig)),
	"oltp-zfs":        buildFilebench(oltpModel, zfsFS),
	"webserver-ufs":   buildFilebench(workload.WebServerModel, plainFS(fs.UFSConfig)),
	"varmail-ufs":     buildFilebench(workload.VarmailModel, plainFS(fs.UFSConfig)),
	"dbt2":            buildDBT2,
	"copy-xp":         buildCopy(plainFS(fs.NTFSXPConfig), workload.XPCopyConfig),
	"copy-vista":      buildCopy(plainFS(fs.NTFSVistaConfig), workload.VistaCopyConfig),
}

// plainFS formats a disk with one of the update-in-place models (UFS,
// ext3, NTFS); zfsFS with the copy-on-write ZFS model.
func plainFS(cfg func() fs.PlainConfig) func(*Engine, *Disk) fs.FS {
	return func(eng *Engine, d *Disk) fs.FS { return fs.NewPlain(eng, d, cfg()) }
}

func zfsFS(eng *Engine, d *Disk) fs.FS { return fs.NewZFS(eng, d, fs.DefaultZFSConfig()) }

// Scenarios lists the available scenario names.
func Scenarios() []string {
	names := make([]string, 0, len(scenarioBuilders))
	for n := range scenarioBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewScenario builds a named scenario. See Scenarios for the catalog.
func NewScenario(name string, cfg ScenarioConfig) (*Scenario, error) {
	build, ok := scenarioBuilders[name]
	if !ok {
		return nil, fmt.Errorf("vscsistats: unknown scenario %q (have %v)", name, Scenarios())
	}
	if cfg.DataBytes <= 0 {
		cfg.DataBytes = 1 << 30
	}
	ds := storage.SymmetrixConfig(cfg.Seed)
	if cfg.Datastore != nil {
		ds = *cfg.Datastore
	}
	s := &Scenario{Name: name, Eng: simclock.NewEngine()}
	s.Host = hypervisor.NewHost(s.Eng)
	s.Host.AddDatastore("ds", ds)
	vd, err := s.Host.CreateVM(name).AddDisk(hypervisor.DiskSpec{
		Name:            "scsi0:0",
		Datastore:       "ds",
		CapacitySectors: uint64(4 * cfg.DataBytes / 512),
		TraceCapacity:   cfg.TraceCapacity,
	})
	if err != nil {
		return nil, err
	}
	s.VD = vd
	if err := build(s, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Run warms the scenario up, enables the collector and any tracer, runs
// the measured duration, and returns the snapshot.
func (s *Scenario) Run(duration Time) *Snapshot {
	s.Gen.Start()
	s.Eng.RunUntil(s.Warmup)
	s.VD.Collector.Enable()
	if s.VD.Tracer != nil {
		s.VD.Tracer.Enable()
	}
	s.Eng.RunUntil(s.Warmup + duration)
	s.Gen.Stop()
	return s.VD.Collector.Snapshot()
}

func buildIometer(spec AccessSpec) func(*Scenario, ScenarioConfig) error {
	return func(s *Scenario, cfg ScenarioConfig) error {
		sp := spec
		sp.Seed = cfg.Seed + 11
		s.Gen = workload.NewIometer(s.Eng, s.VD.Disk, sp)
		s.Warmup = 2 * Second
		return nil
	}
}

func oltpModel(dataBytes int64) *workload.Model { return workload.OLTPModel(dataBytes, dataBytes/10) }

func buildFilebench(mkModel func(int64) *workload.Model, mkFS func(*Engine, *Disk) fs.FS) func(*Scenario, ScenarioConfig) error {
	return func(s *Scenario, cfg ScenarioConfig) error {
		fb := workload.NewFilebench(s.Eng, mkFS(s.Eng, s.VD.Disk), mkModel(cfg.DataBytes), cfg.Seed)
		if err := fb.Setup(); err != nil {
			return err
		}
		s.Gen = fb
		s.Warmup = 10 * Second
		return nil
	}
}

func buildDBT2(s *Scenario, cfg ScenarioConfig) error {
	dc := workload.DefaultDBT2Config()
	dc.DatabaseBytes = cfg.DataBytes
	dc.WALBytes = cfg.DataBytes / 8
	dc.Seed = cfg.Seed
	dc.CheckpointInterval = 15 * Second
	db := workload.NewDBT2(s.Eng, fs.NewPlain(s.Eng, s.VD.Disk, fs.Ext3Config()), dc)
	if err := db.Setup(); err != nil {
		return err
	}
	s.Gen = db
	s.Warmup = 10 * Second
	return nil
}

func buildCopy(mkFS func(*Engine, *Disk) fs.FS, mkCfg func(int64) workload.FileCopyConfig) func(*Scenario, ScenarioConfig) error {
	return func(s *Scenario, cfg ScenarioConfig) error {
		fc := workload.NewFileCopy(s.Eng, mkFS(s.Eng, s.VD.Disk), mkCfg(cfg.DataBytes/2))
		if err := fc.Setup(); err != nil {
			return err
		}
		s.Gen = fc
		s.Warmup = Second
		return nil
	}
}
