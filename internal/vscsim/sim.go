package vscsim

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/fleet"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/workload"
)

// diskSectors is the provisioned size of every simulated virtual disk.
// 1<<18 sectors = 128 MiB: big enough for realistic seek-distance
// histograms, small enough that a 16-disk host fits its local datastore.
const diskSectors = 1 << 18

// SimConfig tunes how an inventory runs. Zero values take the documented
// defaults.
type SimConfig struct {
	// Push is the aggregator's push URL, e.g.
	// "http://127.0.0.1:9108/fleet/push". Empty builds a push-less world
	// (deterministic runs and tests that read collectors directly).
	Push string
	// PushInterval is each host agent's push period (default 2s).
	PushInterval time.Duration
	// Speed is the wall-pacing multiplier: virtual seconds advanced per
	// wall-clock second (default 1). At 100, one wall minute simulates
	// 100 minutes of datacenter I/O.
	Speed float64
	// Tick is the wall pacing quantum (default 200ms): how often workers
	// re-target their hosts' virtual clocks against the wall clock.
	Tick time.Duration
	// Workers is the number of goroutines hosts are multiplexed onto
	// (default GOMAXPROCS). Hosts are independent worlds, so workers scale
	// across cores without any cross-host locking.
	Workers int
	// Client overrides the HTTP client shared by every agent (default: a
	// pooled transport sized for the host count, so a thousand agents
	// reuse connections instead of churning one each).
	Client *http.Client
}

func (c SimConfig) withDefaults(hosts int) SimConfig {
	if c.PushInterval <= 0 {
		c.PushInterval = 2 * time.Second
	}
	if c.Speed <= 0 {
		c.Speed = 1
	}
	if c.Tick <= 0 {
		c.Tick = 200 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > hosts && hosts > 0 {
		c.Workers = hosts
	}
	if c.Client == nil {
		perHost := hosts/8 + 2
		if perHost > 128 {
			perHost = 128
		}
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        perHost * 2,
			MaxIdleConnsPerHost: perHost,
		}}
	}
	return c
}

// simHost is one simulated host: an engine, a hypervisor, its generators
// and its fleet agent. Exactly one goroutine advances a host at a time
// (its worker during Start/Stop, the caller's pool during RunVirtual), so
// the engine needs no locking; the published atomics are the read-side
// window Stats() uses while the world runs.
type simHost struct {
	spec  HostSpec
	eng   *simclock.Engine
	host  *hypervisor.Host
	gens  []*workload.Paced
	agent *fleet.Agent

	vnow  simclock.Time // owned by the advancing goroutine
	vbase simclock.Time // vnow when Start began, for wall targeting

	pubVirtual   atomic.Int64
	pubOps       atomic.Int64
	pubBytes     atomic.Int64
	pubErrors    atomic.Int64
	pubThrottled atomic.Int64
}

// advanceTo runs the host's world up to virtual time t and republishes its
// counters.
func (h *simHost) advanceTo(t simclock.Time) {
	if t <= h.vnow {
		return
	}
	h.eng.RunUntil(t)
	h.vnow = t
	var ops, bytes, errs, thr int64
	for _, g := range h.gens {
		st := g.Stats()
		ops += st.Ops
		bytes += st.Bytes
		errs += st.Errors
		thr += g.Throttled()
	}
	h.pubVirtual.Store(int64(h.vnow))
	h.pubOps.Store(ops)
	h.pubBytes.Store(bytes)
	h.pubErrors.Store(errs)
	h.pubThrottled.Store(thr)
}

// Sim multiplexes an inventory's hosts into one process.
type Sim struct {
	inv *Inventory
	cfg SimConfig

	hosts []*simHost
	vms   int
	disks int

	mu        sync.Mutex
	running   bool
	stop      chan struct{}
	done      sync.WaitGroup
	wallStart time.Time
	wallAccum time.Duration
}

// New builds every host world in the inventory: engine, hypervisor with a
// local-disk datastore, collectors enabled, one open-loop generator per
// disk (started at virtual zero), and — when cfg.Push is set — a fleet
// agent per host. Hosts are built in parallel across cfg.Workers.
func New(inv *Inventory, cfg SimConfig) (*Sim, error) {
	cfg = cfg.withDefaults(len(inv.Hosts))
	s := &Sim{inv: inv, cfg: cfg, hosts: make([]*simHost, len(inv.Hosts))}
	for _, h := range inv.Hosts {
		for _, vm := range h.VMs {
			s.vms++
			s.disks += vm.Disks
		}
	}
	err := fanOut(cfg.Workers, len(inv.Hosts), func(i int) error {
		sh, err := buildHost(inv, inv.Hosts[i], cfg)
		s.hosts[i] = sh
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

func buildHost(inv *Inventory, spec HostSpec, cfg SimConfig) (*simHost, error) {
	eng := simclock.NewEngine()
	host := hypervisor.NewHost(eng)
	host.AddDatastore("ds0", storage.LocalDiskConfig(spec.Seed))
	sh := &simHost{spec: spec, eng: eng, host: host}
	for _, vmSpec := range spec.VMs {
		fp, ok := inv.personality(vmSpec.Personality)
		if !ok {
			return nil, fmt.Errorf("vscsim: VM %q has unknown personality %q", vmSpec.Name, vmSpec.Personality)
		}
		vm := host.CreateVM(vmSpec.Name)
		for d := 0; d < vmSpec.Disks; d++ {
			vd, err := vm.AddDisk(hypervisor.DiskSpec{
				Name:            fmt.Sprintf("scsi0:%d", d),
				Datastore:       "ds0",
				CapacitySectors: diskSectors,
			})
			if err != nil {
				return nil, fmt.Errorf("vscsim: %s: %w", vmSpec.Name, err)
			}
			vd.Collector.Enable()
			gen := workload.NewPaced(eng, vd.Disk,
				fp.PacedSpec(deriveSeed(vmSpec.Seed, uint64(d)), vmSpec.Intensity))
			gen.Start()
			sh.gens = append(sh.gens, gen)
		}
	}
	if cfg.Push != "" {
		sh.agent = fleet.NewAgent(host.Registry(), fleet.AgentConfig{
			Host:     spec.Name,
			Endpoint: cfg.Push,
			Interval: cfg.PushInterval,
			Client:   cfg.Client,
		})
	}
	return sh, nil
}

// Inventory returns the inventory the sim was built from.
func (s *Sim) Inventory() *Inventory { return s.inv }

// Start begins wall-paced execution: cfg.Workers goroutines advance their
// hosts' virtual clocks toward wall-elapsed × Speed every Tick, and every
// host's agent starts pushing. Starting a running sim is a no-op.
func (s *Sim) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return
	}
	s.running = true
	s.stop = make(chan struct{})
	s.wallStart = time.Now()
	for _, h := range s.hosts {
		h.vbase = h.vnow
		if h.agent != nil {
			h.agent.Start()
		}
	}
	for w := 0; w < s.cfg.Workers; w++ {
		s.done.Add(1)
		go s.worker(w)
	}
}

// worker paces hosts[w::Workers] against the wall clock. The virtual
// target is recomputed from the wall each tick, so a tick that overruns
// (engine busier than the CPU budget) self-corrects on the next one
// instead of falling cumulatively behind. The stop check inside the sweep
// bounds Stop latency by one host's advance, not one full sweep — on an
// oversubscribed machine a sweep can take arbitrarily long, and Stop
// means stop, not "finish pacing every host first".
func (s *Sim) worker(w int) {
	defer s.done.Done()
	tick := time.NewTicker(s.cfg.Tick)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			elapsed := time.Since(s.wallStart)
			target := simclock.Time(float64(elapsed.Nanoseconds()) * s.cfg.Speed)
			for i := w; i < len(s.hosts); i += s.cfg.Workers {
				select {
				case <-s.stop:
					return
				default:
				}
				h := s.hosts[i]
				h.advanceTo(h.vbase + target)
			}
		}
	}
}

// Stop halts wall pacing and stops every agent (each delivers one final
// push). Stopping a stopped sim is a no-op.
func (s *Sim) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	close(s.stop)
	s.done.Wait()
	s.wallAccum += time.Since(s.wallStart)
	s.running = false
	s.mu.Unlock()
	// Signal every agent before draining any: each drain delivers a final
	// push, and agents still running while earlier ones drain would keep
	// capturing fresh batches — on a loaded machine the fleet's enqueue
	// rate can outrun the one-at-a-time drain rate indefinitely.
	for _, h := range s.hosts {
		if h.agent != nil {
			h.agent.BeginStop()
		}
	}
	s.eachHost(func(h *simHost) error {
		if h.agent != nil {
			h.agent.Stop()
		}
		return nil
	})
}

// ErrRunning rejects deterministic operations while wall-paced execution
// owns the host engines.
var ErrRunning = errors.New("vscsim: sim is running; Stop it first")

// RunVirtual advances every host by exactly d of virtual time with no wall
// pacing — the deterministic mode: the same inventory advanced by the same
// duration reaches bit-identical collector state, regardless of worker
// count, because hosts are independent worlds.
func (s *Sim) RunVirtual(d time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return ErrRunning
	}
	step := simclock.Duration(d)
	return s.eachHost(func(h *simHost) error {
		h.advanceTo(h.vnow + step)
		return nil
	})
}

// PushAll synchronously pushes every host's current state to the
// aggregator — after RunVirtual, this lands the deterministic world state
// in the aggregator bin-exactly.
func (s *Sim) PushAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return ErrRunning
	}
	return s.eachHost(func(h *simHost) error {
		if h.agent == nil {
			return errors.New("vscsim: no push endpoint configured")
		}
		return h.agent.PushNow()
	})
}

// eachHost fans fn across hosts on cfg.Workers goroutines and returns the
// first error.
func (s *Sim) eachHost(fn func(*simHost) error) error {
	return fanOut(s.cfg.Workers, len(s.hosts), func(i int) error { return fn(s.hosts[i]) })
}

// fanOut calls fn for every index below n on workers goroutines, worker w
// taking w, w+workers, …, and returns the first error. A worker stops at
// its first error; the others finish their share.
func fanOut(workers, n int, fn func(i int) error) error {
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	err, _ := firstErr.Load().(error)
	return err
}

// SimStats is a point-in-time view of the running world.
type SimStats struct {
	// Hosts, VMs and Disks size the inventory.
	Hosts, VMs, Disks int
	// Virtual is the fleet-wide virtual horizon: the minimum virtual time
	// any host has reached. Wall is total wall time spent in Start/Stop
	// windows, and Speed their ratio — the achieved multiplier.
	Virtual time.Duration
	Wall    time.Duration
	Speed   float64
	// Ops, Bytes and Errors total completed guest commands across every
	// generator; Throttled counts arrivals skipped at outstanding-I/O
	// caps.
	Ops, Bytes, Errors, Throttled int64
	// Agent sums every host agent's push counters.
	Agent fleet.AgentStats
}

// Stats sums the published per-host counters; safe to call while the sim
// runs.
func (s *Sim) Stats() SimStats {
	st := SimStats{Hosts: len(s.hosts), VMs: s.vms, Disks: s.disks}
	minVirtual := int64(-1)
	for _, h := range s.hosts {
		v := h.pubVirtual.Load()
		if minVirtual < 0 || v < minVirtual {
			minVirtual = v
		}
		st.Ops += h.pubOps.Load()
		st.Bytes += h.pubBytes.Load()
		st.Errors += h.pubErrors.Load()
		st.Throttled += h.pubThrottled.Load()
		if h.agent != nil {
			a := h.agent.Stats()
			st.Agent.Pushes += a.Pushes
			st.Agent.DeltaPushes += a.DeltaPushes
			st.Agent.Heartbeats += a.Heartbeats
			st.Agent.Errors += a.Errors
			st.Agent.Retries += a.Retries
			st.Agent.Dropped += a.Dropped
			st.Agent.Resyncs += a.Resyncs
			st.Agent.SentBytes += a.SentBytes
			st.Agent.QueueLen += a.QueueLen
			if a.LastError != "" {
				st.Agent.LastError = a.LastError
			}
		}
	}
	if minVirtual > 0 {
		st.Virtual = time.Duration(minVirtual)
	}
	s.mu.Lock()
	st.Wall = s.wallAccum
	if s.running {
		st.Wall += time.Since(s.wallStart)
	}
	s.mu.Unlock()
	if st.Wall > 0 {
		st.Speed = float64(st.Virtual) / float64(st.Wall)
	}
	return st
}

var simSeries = []telemetry.Series[SimStats]{
	telemetry.Gauge("vscsistats_vscsim_hosts", "Simulated hosts in the inventory.", func(s SimStats) int { return s.Hosts }),
	telemetry.Gauge("vscsistats_vscsim_vms", "Simulated VMs in the inventory.", func(s SimStats) int { return s.VMs }),
	telemetry.Gauge("vscsistats_vscsim_disks", "Simulated virtual disks in the inventory.", func(s SimStats) int { return s.Disks }),
	telemetry.Gauge("vscsistats_vscsim_virtual_seconds", "Fleet-wide virtual horizon (the slowest host's clock).", func(s SimStats) float64 { return s.Virtual.Seconds() }),
	telemetry.Gauge("vscsistats_vscsim_wall_seconds", "Wall time spent in wall-paced execution.", func(s SimStats) float64 { return s.Wall.Seconds() }),
	telemetry.Gauge("vscsistats_vscsim_speed", "Achieved pacing multiplier: virtual seconds per wall second.", func(s SimStats) float64 { return s.Speed }),
	telemetry.Counter("vscsistats_vscsim_ops_total", "Completed simulated guest commands.", func(s SimStats) int64 { return s.Ops }),
	telemetry.Counter("vscsistats_vscsim_bytes_total", "Bytes moved by completed simulated commands.", func(s SimStats) int64 { return s.Bytes }),
	telemetry.Counter("vscsistats_vscsim_errors_total", "Simulated commands completed with a status other than GOOD.", func(s SimStats) int64 { return s.Errors }),
	telemetry.Counter("vscsistats_vscsim_throttled_total", "Arrivals skipped at a generator's outstanding-I/O cap.", func(s SimStats) int64 { return s.Throttled }),
	telemetry.Counter("vscsistats_vscsim_pushes_total", "Batches the simulated hosts' agents delivered.", func(s SimStats) int64 { return s.Agent.Pushes }),
	telemetry.Counter("vscsistats_vscsim_push_errors_total", "Failed delivery attempts across the simulated agents.", func(s SimStats) int64 { return s.Agent.Errors }),
}

// WriteMetrics implements telemetry.Source: the vscsistats_vscsim_*
// series — inventory size, virtual/wall pacing, simulated command totals
// and agent push health.
func (s *Sim) WriteMetrics(w *telemetry.Writer) {
	telemetry.Table(w, []SimStats{s.Stats()}, nil, simSeries)
}
