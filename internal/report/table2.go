package report

import (
	"fmt"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/storage"
	"vscsistats/internal/vscsi"
	"vscsistats/internal/workload"
)

// Table2Overhead regenerates Table 2: the cost of the online histogram
// service, measured two ways.
//
// The throughput/latency rows come from the simulated Iometer 4 KB
// sequential read microbenchmark (§5.1) with the service disabled and
// enabled — in the simulator these are bit-identical by construction, the
// analogue of the paper's "negligible degradation ... well within the
// noise".
//
// The CPU rows are real wall-clock measurements of this implementation's
// fast path via testing.Benchmark: nanoseconds per command through the
// vSCSI issue+complete path with the collector detached-equivalent
// (disabled) versus enabled, exactly the per-I/O cost Table 2's "CPU
// Efficiency in UsedSec/IOps" captures.
func Table2Overhead(opts Options) (*Result, error) {
	r := newResult("table2", "Microbenchmark performance: online histogram service off vs on")

	// --- Simulated Iometer rows ---
	type row struct {
		iops, mbps, latencyUs float64
	}
	sim := func(enabled bool) (row, error) {
		eng := simclock.NewEngine()
		host := hypervisor.NewHost(eng)
		host.AddDatastore("sym", storage.SymmetrixConfig(opts.Seed))
		vd, err := host.CreateVM("iometer").AddDisk(hypervisor.DiskSpec{
			Name: "scsi0:0", Datastore: "sym", CapacitySectors: 6 << 21,
		})
		if err != nil {
			return row{}, err
		}
		if enabled {
			vd.Collector.Enable()
		}
		gen := workload.NewIometer(eng, vd.Disk, workload.FourKSeqRead(32))
		gen.Start()
		dur := opts.Duration / 2
		if dur < 10*simclock.Second {
			dur = 10 * simclock.Second
		}
		eng.RunUntil(dur)
		st := gen.Stats()
		return row{
			iops:      st.Rate(dur),
			mbps:      st.Throughput(dur) / (1 << 20),
			latencyUs: float64(st.MeanLatency().Micros()),
		}, nil
	}
	off, err := sim(false)
	if err != nil {
		return nil, err
	}
	on, err := sim(true)
	if err != nil {
		return nil, err
	}

	// --- Wall-clock fast-path rows ---
	cost := MeasureFastPathCost(0)
	perCmdOff := cost.PerCmdOffNs
	perCmdOn := cost.PerCmdOnNs
	overheadNs := cost.OverheadNs
	overheadPct := cost.OverheadPct

	// Collector memory: the histogram data structures are allocated only
	// when enabled (§5.2); their size is fixed by the bin layouts.
	memBytes := collectorMemoryBytes()

	r.notef("simulated Iometer 4KB sequential read, 32 OIO, Symmetrix preset")
	r.addChart("Table 2", fmt.Sprintf(
		"%-38s %12s %12s\n%-38s %12.0f %12.0f\n%-38s %12.1f %12.1f\n%-38s %12.0f %12.0f\n%-38s %12.1f %12.1f\n%-38s %12.1f %12.1f\n",
		"Online Histo Service", "Disabled", "Enabled",
		"IOps", off.iops, on.iops,
		"MBps", off.mbps, on.mbps,
		"Latency in microseconds", off.latencyUs, on.latencyUs,
		"CPU ns/command (wall clock)", perCmdOff, perCmdOn,
		"CPU overhead %", 0.0, overheadPct))
	r.notef("virtual-time results identical by construction: IOps %.0f vs %.0f, latency %.1f vs %.1f us",
		off.iops, on.iops, off.latencyUs, on.latencyUs)
	r.notef("wall-clock fast path: %.0f ns/cmd disabled vs %.0f ns/cmd enabled (+%.0f ns; %.1f%% of our ~%0.fns path)",
		perCmdOff, perCmdOn, overheadNs, overheadPct, perCmdOff)
	r.notef("context: the paper's testbed spends ~130 us of CPU per command end to end (Table 2: 106%% of one core at 8187 IOps); +%.0f ns against that budget is %.2f%% — 'well within the noise'",
		overheadNs, 100*overheadNs/130_000)
	r.notef("live self-telemetry cross-check: the enabled collector's sampled observe cost was %.0f ns/observation over %d observations (%d timed, inside the collector's lock so no wait for it is counted), i.e. ~%.0f ns/command for the issue+complete pair — same order as the offline +%.0f ns/command delta",
		cost.LiveMeanObserveNs, cost.LiveObservations, cost.LiveSampled, 2*cost.LiveMeanObserveNs, overheadNs)
	r.notef("collector memory when enabled: %d bytes (%d histograms in one slab of 8-byte cells over shared bin layouts — reads and writes per metric, class all is their sum at snapshot time; zero when disabled — structures are created on demand)",
		memBytes, collectorHistograms)
	r.CSVs["table2"] = fmt.Sprintf("metric,disabled,enabled\niops,%.0f,%.0f\nmbps,%.2f,%.2f\nlatency_us,%.1f,%.1f\ncpu_ns_per_cmd,%.1f,%.1f\n",
		off.iops, on.iops, off.mbps, on.mbps, off.latencyUs, on.latencyUs, perCmdOff, perCmdOn)
	return r, nil
}

// FastPathCost holds Table 2's wall-clock CPU rows together with the live
// self-telemetry read from the enabled collector — the offline benchmark
// and the online metric measuring the same thing, side by side.
type FastPathCost struct {
	// PerCmdOffNs / PerCmdOnNs are nanoseconds per command through the
	// vSCSI issue+complete path with the collector disabled / enabled.
	PerCmdOffNs, PerCmdOnNs float64
	// RawOverheadNs is the measured difference; on short runs scheduler
	// noise can drive it below zero.
	RawOverheadNs float64
	// OverheadNs and OverheadPct are the reported overhead, clamped to be
	// non-negative (a negative measured overhead means "below noise").
	OverheadNs, OverheadPct float64
	// LiveMeanObserveNs is the enabled collector's own sampled estimate of
	// one fast-path observation (core.SelfSnapshot.MeanObserveNanos, lock
	// wait excluded); a command makes two observations, issue and complete.
	LiveMeanObserveNs float64
	// LiveObservations and LiveSampled are the self-telemetry counters
	// after the enabled run.
	LiveObservations, LiveSampled int64
}

// MeasureFastPathCost measures the wall-clock cost of the vSCSI fast path
// with the characterization service off and on. With iters <= 0 it uses
// testing.Benchmark (auto-scaled, ~1 s per arm); a positive iters runs a
// fixed-length manual timing loop instead, for quick unit-test runs.
func MeasureFastPathCost(iters int) FastPathCost {
	newBenchDisk := func(enabled bool) (*vscsi.Disk, *core.Collector) {
		eng := simclock.NewEngine()
		backend := vscsi.BackendFunc(func(q *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
			done(scsi.StatusGood, scsi.Sense{})
		})
		d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{
			VM: "bench", Name: "d", CapacitySectors: 1 << 30,
		})
		col := core.NewCollector("bench", "d")
		d.AddObserver(col)
		if enabled {
			col.Enable()
		}
		return d, col
	}
	run := func(enabled bool) (nsPerCmd float64, col *core.Collector) {
		d, col := newBenchDisk(enabled)
		loop := func(n int) error {
			cmd := scsi.Read(0, 8)
			for i := 0; i < n; i++ {
				cmd.LBA = uint64(i) * 8 % (1 << 29)
				if _, err := d.Issue(cmd, nil); err != nil {
					return err
				}
			}
			return nil
		}
		if iters > 0 {
			start := time.Now()
			if err := loop(iters); err != nil {
				return 0, col
			}
			return float64(time.Since(start).Nanoseconds()) / float64(iters), col
		}
		res := testing.Benchmark(func(b *testing.B) {
			if err := loop(b.N); err != nil {
				b.Fatal(err)
			}
		})
		return float64(res.NsPerOp()), col
	}

	cost := FastPathCost{}
	cost.PerCmdOffNs, _ = run(false)
	var colOn *core.Collector
	cost.PerCmdOnNs, colOn = run(true)
	cost.RawOverheadNs = cost.PerCmdOnNs - cost.PerCmdOffNs
	cost.OverheadNs = cost.RawOverheadNs
	if cost.OverheadNs < 0 {
		cost.OverheadNs = 0
	}
	if cost.PerCmdOffNs > 0 {
		cost.OverheadPct = 100 * cost.OverheadNs / cost.PerCmdOffNs
	}
	if self := colOn.SelfStats(); self != nil {
		cost.LiveMeanObserveNs = self.MeanObserveNanos()
		cost.LiveObservations = self.Observations
		cost.LiveSampled = self.Sampled
	}
	return cost
}

// collectorHistograms is how many histograms an enabled collector holds:
// reads and writes for each of the five metrics, plus the windowed seek.
const collectorHistograms = 2*5 + 1

// collectorMemoryBytes is what Enable allocates for one collector, summed
// from the live structures themselves (the slab — one 8-byte cell per bin
// plus a sum cell per histogram — the look-behind ring and the struct) so
// it follows the bin layouts in bins.go.
func collectorMemoryBytes() int {
	c := core.NewCollector("vm", "disk")
	c.Enable()
	return c.MemoryBytes()
}
