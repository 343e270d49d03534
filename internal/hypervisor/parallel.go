package hypervisor

import (
	"fmt"
	"strings"
	"sync"

	"vscsistats/internal/core"
	"vscsistats/internal/simclock"
)

// World is one independent simulation: a private engine and a private host.
// Everything reachable from the engine (datastores, VMs, disks, workload
// generators) belongs to the world's goroutine while the driver runs; the
// only objects shared across worlds are the driver's registry and the
// collectors registered in it, both of which are safe for concurrent use.
type World struct {
	// Index identifies the world within its driver, 0-based. Use it to
	// derive unique VM names and per-world RNG seeds.
	Index  int
	Engine *simclock.Engine
	Host   *Host
}

// ParallelSim drives N independent simulation worlds across CPU cores — the
// embarrassingly parallel multi-VM case: consolidation studies where each
// VM (or group of VMs) has its own datastore, so no simulated component is
// shared and each world can advance on its own virtual clock. Scenarios
// whose VMs contend on one array (the paper's Figure 6 interference study)
// are inherently serial and still belong on a single engine.
//
// All worlds' collectors land in one shared Registry, so a monitoring
// goroutine — an HTTP stats handler, an esxtop-style poller — can snapshot
// and toggle any disk's characterization service while every world runs.
// The observation fast path is built for exactly this shape of load: each
// world's workload generators issue their initial windows through
// Disk.IssueBatch (one observer dispatch and one stream-mutex acquisition
// per burst). A collector is one slab of histogram cells under its mutex:
// a poller's snapshot holds it for one copy of the slab, and a world that
// has to wait for it is counted in SelfStats().Contended. Each world owns
// its disks' collectors, so a histogram has one command-rate writer and
// holds one cell per bin — O(m) per virtual disk however many worlds run.
type ParallelSim struct {
	registry *core.Registry
	worlds   []*World
}

// NewParallelSim creates n worlds and calls setup on each in index order.
// The setup callback provisions the world's datastores, VMs and workloads;
// VM names must be unique across worlds (e.g. fmt.Sprintf("vm%d", w.Index))
// because every world registers into the shared registry.
func NewParallelSim(n int, setup func(w *World)) *ParallelSim {
	if n < 1 {
		panic(fmt.Sprintf("hypervisor: NewParallelSim needs n >= 1, got %d", n))
	}
	p := &ParallelSim{registry: core.NewRegistry()}
	for i := 0; i < n; i++ {
		eng := simclock.NewEngine()
		w := &World{Index: i, Engine: eng, Host: NewHostOn(eng, p.registry)}
		p.worlds = append(p.worlds, w)
		if setup != nil {
			setup(w)
		}
	}
	return p
}

// Registry returns the shared registry holding every world's collectors.
func (p *ParallelSim) Registry() *core.Registry { return p.registry }

// Worlds returns the driver's worlds in index order.
func (p *ParallelSim) Worlds() []*World { return p.worlds }

// World returns the i-th world.
func (p *ParallelSim) World(i int) *World { return p.worlds[i] }

// RunUntil advances every world to the given virtual deadline, each on its
// own goroutine, and returns when all have arrived — one barrier at the
// end. Worlds' clocks diverge freely in between, which is fine when nothing
// simulated is shared.
func (p *ParallelSim) RunUntil(deadline simclock.Time) {
	p.each(func(w *World) { w.Engine.RunUntil(deadline) })
}

// Run drains every world's event queue in parallel.
func (p *ParallelSim) Run() {
	p.each(func(w *World) { w.Engine.Run() })
}

// RunLockstep advances all worlds to the deadline in barrier-synchronized
// steps: no world's clock leads another's by more than step. Use it when an
// outside observer correlates worlds in time (e.g. interval recorders whose
// series are compared side by side); plain RunUntil is faster when only the
// final state matters.
func (p *ParallelSim) RunLockstep(step, deadline simclock.Time) {
	if step <= 0 {
		panic("hypervisor: RunLockstep step must be positive")
	}
	for t := simclock.Time(0); t < deadline; {
		t += step
		if t > deadline {
			t = deadline
		}
		p.RunUntil(t)
	}
}

// RunSequential advances the worlds to deadline one after another on the
// calling goroutine — the single-threaded baseline the parallel driver is
// benchmarked against. The final state of every world is identical to
// RunUntil's, since worlds share no simulated components.
func (p *ParallelSim) RunSequential(deadline simclock.Time) {
	for _, w := range p.worlds {
		w.Engine.RunUntil(deadline)
	}
}

func (p *ParallelSim) each(f func(*World)) {
	var wg sync.WaitGroup
	for _, w := range p.worlds {
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// DiskCounters finds the named virtual disk in whichever world hosts it
// and reports its vSCSI-layer counters (telemetry.DiskStatsSource). VM
// names are unique across worlds, so the first match wins.
func (p *ParallelSim) DiskCounters(vm, disk string) (issued, completed, errored uint64, inflight int64, ok bool) {
	for _, w := range p.worlds {
		if issued, completed, errored, inflight, ok = w.Host.DiskCounters(vm, disk); ok {
			return
		}
	}
	return 0, 0, 0, 0, false
}

// Top renders one esxtop-style counter table across every world's host
// (each per-host table repeats the header; keep only the first).
func (p *ParallelSim) Top() string {
	var b strings.Builder
	for i, w := range p.worlds {
		t := w.Host.Top()
		if i > 0 {
			if nl := strings.IndexByte(t, '\n'); nl >= 0 {
				t = t[nl+1:]
			}
		}
		b.WriteString(t)
	}
	return b.String()
}
