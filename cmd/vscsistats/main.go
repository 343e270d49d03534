// Command vscsistats is the paper's "command line utility to enable and
// disable these stats", adapted to the simulated stack: it runs a named
// workload scenario with the online characterization service attached and
// prints the collected histograms.
//
// Usage:
//
//	vscsistats -list
//	vscsistats -workload oltp-zfs -duration 60 -metric seekDistance -class writes
//	vscsistats -workload dbt2 -duration 120 -csv -interval 6
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"vscsistats"
)

// recordIntervals sets *rec to an interval recorder started where Run starts
// measuring, in an event at the end of warm-up that also enables what Run
// then does: intervals, snapshot and trace cover the same commands.
func recordIntervals(sc *vscsistats.Scenario, every vscsistats.Time, rec **vscsistats.IntervalRecorder) {
	sc.Eng.At(sc.Warmup, func(vscsistats.Time) {
		sc.VD.Collector.Enable()
		if sc.VD.Tracer != nil {
			sc.VD.Tracer.Enable()
		}
		*rec = vscsistats.NewIntervalRecorder(sc.Eng, sc.VD.Collector, every)
	})
}

func main() {
	var (
		list       = flag.Bool("list", false, "list available workload scenarios and exit")
		name       = flag.String("workload", "iometer-4k-seq", "scenario to run (see -list)")
		duration   = flag.Int("duration", 30, "measured duration in virtual seconds")
		data       = flag.Int64("data", 1<<30, "primary dataset size in bytes")
		seed       = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		metric     = flag.String("metric", "", "print a single metric (ioLength, seekDistance, seekDistanceWindowed, outstandingIOs, latency, interarrival)")
		class      = flag.String("class", "all", "operation class: all, reads or writes")
		csv        = flag.Bool("csv", false, "emit CSV instead of ASCII charts")
		interval   = flag.Int("interval", 0, "also record per-interval histograms every N seconds")
		serve      = flag.String("serve", "", "after the run, serve the results over HTTP at this address (e.g. :8080)")
		withPprof  = flag.Bool("pprof", false, "with -serve, also mount Go profiling endpoints at /debug/pprof (off by default)")
		lifetrace  = flag.Int("lifetrace", 0, "attach a command tracer retaining the last N commands and control verbs; exported at /debug/trace with -serve")
		compare    = flag.String("compare", "", "second scenario to run and compare against -workload")
		categorize = flag.Bool("categorize", false, "classify -workload against short reference runs of every other scenario")
	)
	flag.Parse()

	if *list {
		fmt.Println("available scenarios:")
		for _, s := range vscsistats.Scenarios() {
			fmt.Println("  " + s)
		}
		return
	}

	sc, err := vscsistats.NewScenario(*name, vscsistats.ScenarioConfig{
		Seed: *seed, DataBytes: *data, TraceCapacity: *lifetrace,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *compare != "" {
		if err := runCompare(sc, *compare, *duration, *data, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *categorize {
		if err := runCategorize(sc, *name, *duration, *data, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cl, err := parseClass(*class)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var rec *vscsistats.IntervalRecorder
	if *interval > 0 {
		recordIntervals(sc, vscsistats.Time(*interval)*vscsistats.Second, &rec)
	}

	snap := sc.Run(vscsistats.Time(*duration) * vscsistats.Second)
	if rec != nil {
		rec.Stop()
	}

	if *metric != "" {
		h := snap.Histogram(vscsistats.Metric(*metric), cl)
		if h == nil {
			fmt.Fprintf(os.Stderr, "unknown metric %q\n", *metric)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(h.CSV())
		} else {
			fmt.Print(h.Render(50))
		}
	} else {
		fmt.Println(snap.Summary())
		for _, m := range []vscsistats.Metric{
			vscsistats.MetricIOLength, vscsistats.MetricSeekDistance,
			vscsistats.MetricSeekWindowed, vscsistats.MetricOutstanding,
			vscsistats.MetricLatency, vscsistats.MetricInterarrival,
		} {
			h := snap.Histogram(m, cl)
			if *csv {
				fmt.Printf("# %s (%s)\n%s", m, cl, h.CSV())
			} else {
				fmt.Println(h.Render(50))
			}
		}
		fmt.Println(vscsistats.FingerprintOf(snap).Report())
	}

	if rec != nil && !*csv {
		fmt.Printf("\nlatency over time (%ds intervals):\n", *interval)
		fmt.Println(rec.Series(vscsistats.MetricLatency, cl).String())
	} else if rec != nil {
		fmt.Printf("# latency over time\n%s", rec.Series(vscsistats.MetricLatency, cl).CSV())
	}

	st := sc.Gen.Stats()
	dur := vscsistats.Time(*duration) * vscsistats.Second
	fmt.Fprintf(os.Stderr, "workload %s: %s (%.0f ops/s, %.1f MB/s)\n",
		sc.Name, st, st.Rate(dur), st.Throughput(dur)/(1<<20))

	if *serve != "" {
		reg := sc.Host.Registry()
		streamer := vscsistats.NewSnapshotStreamer(reg, 2*time.Second, 300)
		streamer.Start()
		defer streamer.Stop()
		opts := vscsistats.StatsOptions{
			Metrics: vscsistats.NewMetricsExporter(reg).WithDiskStats(sc.Host),
			Series:  streamer,
			Pprof:   *withPprof,
		}
		if tracer := sc.VD.Tracer; tracer != nil {
			opts.Trace = tracer
			opts.OnControl = tracer.Control
		}
		fmt.Fprintf(os.Stderr, "serving stats on http://%s/disks (also /metrics, /watch", *serve)
		if sc.VD.Tracer != nil {
			fmt.Fprint(os.Stderr, ", /debug/trace")
		}
		if *withPprof {
			fmt.Fprint(os.Stderr, ", /debug/pprof")
		}
		fmt.Fprintln(os.Stderr, ")")
		if err := http.ListenAndServe(*serve, vscsistats.NewStatsHandlerWith(reg, opts)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runCompare runs a second scenario and prints the two characterizations
// side by side with their distribution distances.
func runCompare(a *vscsistats.Scenario, otherName string, duration int, data, seed int64) error {
	b, err := vscsistats.NewScenario(otherName, vscsistats.ScenarioConfig{Seed: seed, DataBytes: data})
	if err != nil {
		return err
	}
	dur := vscsistats.Time(duration) * vscsistats.Second
	sa := a.Run(dur)
	sb := b.Run(dur)
	for _, m := range []vscsistats.Metric{
		vscsistats.MetricIOLength, vscsistats.MetricSeekDistance, vscsistats.MetricOutstanding,
	} {
		ha := sa.Histogram(m, vscsistats.All).Clone()
		hb := sb.Histogram(m, vscsistats.All).Clone()
		ha.Name, hb.Name = a.Name, b.Name
		fmt.Println(vscsistats.RenderHistogramComparison(string(m), ha, hb))
		fmt.Printf("distribution distance: %.3f\n\n", vscsistats.HistogramDistance(ha, hb))
	}
	fmt.Printf("%s: %s\n%s: %s\n", a.Name, vscsistats.FingerprintOf(sa), b.Name, vscsistats.FingerprintOf(sb))
	return nil
}

// runCategorize builds a reference catalog from brief runs of every other
// scenario and classifies the probe workload against it.
func runCategorize(probe *vscsistats.Scenario, probeName string, duration int, data, seed int64) error {
	catalog, err := vscsistats.NewWorkloadCatalog()
	if err != nil {
		return err
	}
	refDur := 10 * vscsistats.Second
	for _, name := range vscsistats.Scenarios() {
		if name == probeName {
			continue
		}
		ref, err := vscsistats.NewScenario(name, vscsistats.ScenarioConfig{
			Seed: seed + 1000, DataBytes: data,
		})
		if err != nil {
			return err
		}
		if err := catalog.Add(name, ref.Run(refDur)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "reference %s collected\n", name)
	}
	snap := probe.Run(vscsistats.Time(duration) * vscsistats.Second)
	report, err := catalog.Report(snap)
	if err != nil {
		return err
	}
	fmt.Printf("probe: %s\n%s", probeName, report)
	return nil
}

func parseClass(s string) (vscsistats.Class, error) {
	switch strings.ToLower(s) {
	case "all", "":
		return vscsistats.All, nil
	case "reads", "read":
		return vscsistats.Reads, nil
	case "writes", "write":
		return vscsistats.Writes, nil
	}
	return vscsistats.All, fmt.Errorf("unknown class %q (all, reads, writes)", s)
}
