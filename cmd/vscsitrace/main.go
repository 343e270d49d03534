// Command vscsitrace drives the virtual SCSI command tracing framework:
// capture a trace from a simulated workload, dump it, replay it into
// histograms, or run the offline analyses (exact statistics, sequential
// stream detection, seek-vs-latency correlation) that online histograms
// cannot provide (§3.6).
//
// Every file this command writes is a VSCT trace, streamed as it is
// encoded. Every file-reading subcommand autodetects the trace encoding:
// VSCT version 2, MSR Cambridge CSV and Alibaba cloud-trace CSV all work
// anywhere a trace is expected, so a downloaded public corpus replays
// directly. The version 1 files and headerless frame streams older builds
// wrote are refused; DESIGN.md §8 says how to upgrade them. For example:
//
//	vscsitrace capture -workload dbt2 -duration 30 -o dbt2.vsct
//	vscsitrace dump -i dbt2.vsct | head
//	vscsitrace analyze -i dbt2.vsct
//	vscsitrace replay -i web_0.csv -workers 4 -progress
//	vscsitrace replay -i dbt2.vsct -serve :8080
//	vscsitrace convert -i web_0.csv -o web_0.vsct
//	vscsitrace synth -seed 7 -n 1000000 -o synth.vsct
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"vscsistats"
	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/httpstats"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "capture":
		err = capture(args)
	case "dump":
		err = dump(args)
	case "analyze":
		err = analyze(args)
	case "replay":
		err = replay(args)
	case "convert":
		err = convert(args)
	case "synth":
		err = synth(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vscsitrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: vscsitrace <capture|dump|analyze|replay|convert|synth> [flags]
  capture -workload NAME -duration SECS -data BYTES -seed N -o FILE
  dump    -i FILE [-format F] [-csv]
  analyze -i FILE [-format F]
  replay  -i FILE [-format F] [-workers N] [-merge-window N]
          [-metric NAME] [-classify] [-serve ADDR] [-progress]
  convert -i FILE [-format F] -o FILE
  synth   -seed N -n COUNT -o FILE
every output is a VSCT trace
formats: auto (default), native (VSCT version 2), msr, alibaba;
-i - reads stdin`)
	os.Exit(2)
}

func capture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	name := fs.String("workload", "dbt2", "scenario to trace")
	duration := fs.Int("duration", 30, "virtual seconds to capture")
	data := fs.Int64("data", 1<<30, "dataset size in bytes")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "trace.vsct", "output trace file")
	fs.Parse(args)

	sc, err := vscsistats.NewScenario(*name, vscsistats.ScenarioConfig{
		Seed: *seed, DataBytes: *data, TraceCapacity: 4 << 20,
	})
	if err != nil {
		return err
	}
	sc.Run(vscsistats.Time(*duration) * vscsistats.Second)
	recs := sc.VD.Tracer.Records()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "captured %d commands from %s into %s\n", len(recs), *name, *out)
	if lost := sc.VD.Tracer.Total() - uint64(len(recs)); lost > 0 {
		fmt.Fprintf(os.Stderr, "the trace ring dropped the %d oldest commands\n", lost)
	}
	return f.Close()
}

// openSource opens path (or stdin for "-") as a streaming record source,
// autodetecting the encoding unless format names one.
func openSource(path, format string) (trace.RecordSource, func() error, error) {
	f, err := trace.ParseFormat(format)
	if err != nil {
		return nil, nil, err
	}
	var r *os.File
	if path == "-" {
		r = os.Stdin
	} else {
		r, err = os.Open(path)
		if err != nil {
			return nil, nil, err
		}
	}
	src, _, err := trace.Open(r, f)
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return src, r.Close, nil
}

// load materializes a whole trace, for the offline analyses that need it.
func load(path, format string) ([]trace.Record, error) {
	src, closer, err := openSource(path, format)
	if err != nil {
		return nil, err
	}
	defer closer()
	return trace.ReadAll(src)
}

func dump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("i", "trace.vsct", "input trace file")
	format := fs.String("format", "auto", "input format")
	csv := fs.Bool("csv", false, "emit CSV")
	fs.Parse(args)
	recs, err := load(*in, *format)
	if err != nil {
		return err
	}
	if *csv {
		return trace.WriteCSV(os.Stdout, recs)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, r := range recs {
		fmt.Fprintln(w, r)
	}
	return nil
}

func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("i", "trace.vsct", "input trace file")
	format := fs.String("format", "auto", "input format")
	fs.Parse(args)
	recs, err := load(*in, *format)
	if err != nil {
		return err
	}
	fmt.Println("== exact statistics ==")
	fmt.Print(analysis.Analyze(recs))
	fmt.Println("\n== sequential streams ==")
	fmt.Print(analysis.StreamSummary(recs, analysis.DefaultStreamConfig()))
	fmt.Println("\n== seek distance vs latency (2-D histogram, §3.6) ==")
	fmt.Print(analysis.SeekLatency(recs))
	b := analysis.BurstinessOf(recs, 1000)
	fmt.Println("\n== arrival process (1 ms windows) ==")
	fmt.Printf("windows=%d mean=%.1f peak=%.0f peak/mean=%.1f dispersion=%.2f",
		b.Windows, b.Mean, b.Peak, b.PeakToMean, b.IndexOfDisp)
	if b.HurstOK {
		fmt.Printf(" hurst=%.2f", b.Hurst)
	}
	fmt.Println()
	return nil
}

// badLiner is implemented by the CSV sources: lines skipped as malformed.
type badLiner interface{ BadLines() uint64 }

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "trace.vsct", "input trace file")
	format := fs.String("format", "auto", "input format")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "replay worker goroutines")
	mergeWindow := fs.Int("merge-window", 0, "issue-order merge lookahead in records (0 = trust per-disk capture order)")
	metric := fs.String("metric", "", "single metric to print")
	classify := fs.Bool("classify", false, "match each disk against the personality catalog")
	serve := fs.String("serve", "", "serve live histograms on ADDR during and after the replay")
	progress := fs.Bool("progress", false, "print a progress line to stderr")
	fs.Parse(args)

	src, closer, err := openSource(*in, *format)
	if err != nil {
		return err
	}
	defer closer()

	reg := core.NewRegistry()
	cfg := trace.ReplayConfig{
		Workers:     *workers,
		MergeWindow: *mergeWindow,
		Registry:    reg,
	}
	if *progress {
		cfg.Progress = func(n uint64) { fmt.Fprintf(os.Stderr, "\rreplayed %d records...", n) }
	}
	if *serve != "" {
		h := httpstats.New(reg)
		go func() {
			if err := http.ListenAndServe(*serve, h); err != nil {
				fmt.Fprintln(os.Stderr, "vscsitrace: serve:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "serving live histograms on %s\n", *serve)
	}

	start := time.Now()
	res, err := trace.ReplayParallel(src, cfg)
	stats, snap := res.Stats, res.Merged()
	elapsed := time.Since(start)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if stats.Records == 0 {
		return fmt.Errorf("trace is empty")
	}

	fmt.Printf("replayed %d records / %d disks in %v (%.0f records/s, %d bursts, workers=%d)\n",
		stats.Records, stats.Disks, elapsed.Round(time.Millisecond),
		float64(stats.Records)/elapsed.Seconds(), stats.Batches, cfg.Workers)
	if stats.OrderViolations > 0 {
		fmt.Printf("warning: %d records out of issue order (try -merge-window)\n", stats.OrderViolations)
	}
	if bl, ok := src.(badLiner); ok && bl.BadLines() > 0 {
		fmt.Printf("warning: %d malformed lines skipped\n", bl.BadLines())
	}

	switch {
	case *metric != "":
		h := snap.Histogram(core.Metric(*metric), core.All)
		if h == nil {
			return fmt.Errorf("unknown metric %q", *metric)
		}
		fmt.Print(h.Render(50))
	case *classify:
		if err := classifyReplay(res, snap); err != nil {
			return err
		}
	default:
		if len(res.Collectors()) > 1 {
			printDiskTable(res)
		}
		fmt.Println(snap.Summary())
	}

	if *serve != "" {
		fmt.Fprintln(os.Stderr, "replay complete; still serving (interrupt to exit)")
		select {}
	}
	return nil
}

func printDiskTable(res *trace.ReplayResult) {
	cols := res.Collectors()
	sort.Slice(cols, func(i, j int) bool {
		if cols[i].VM() != cols[j].VM() {
			return cols[i].VM() < cols[j].VM()
		}
		return cols[i].Disk() < cols[j].Disk()
	})
	fmt.Printf("%-16s %-10s %10s %10s %10s %8s\n", "VM", "DISK", "COMMANDS", "READS", "WRITES", "ERRORS")
	for _, c := range cols {
		s := c.Snapshot()
		if s == nil {
			continue
		}
		fmt.Printf("%-16s %-10s %10d %10d %10d %8d\n", c.VM(), c.Disk(), s.Commands, s.NumReads, s.NumWrites, s.Errors)
	}
}

// classifyReplay matches each replayed disk (and the cluster rollup)
// against the fleet personality catalog (§7 automatic categorization).
func classifyReplay(res *trace.ReplayResult, merged *core.Snapshot) error {
	cat, err := vscsim.ReferenceCatalog(1)
	if err != nil {
		return err
	}
	for _, c := range res.Collectors() {
		s := c.Snapshot()
		if s == nil || s.Commands == 0 {
			continue
		}
		m, err := cat.Best(s)
		if err != nil {
			return err
		}
		fmt.Printf("%s/%s: %s (distance %.3f)\n", c.VM(), c.Disk(), m.Name, m.Score)
	}
	m, err := cat.Best(merged)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %s (distance %.3f)\n", m.Name, m.Score)
	return nil
}

func convert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("i", "", "input trace file (any format)")
	format := fs.String("format", "auto", "input format")
	out := fs.String("o", "", "output trace file")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("convert: -i and -o are required")
	}

	src, closer, err := openSource(*in, *format)
	if err != nil {
		return err
	}
	defer closer()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()

	tw := trace.NewWriter(f)
	var rec trace.Record
	for {
		if err := src.Next(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		if err := tw.Append(rec); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	if bl, ok := src.(badLiner); ok && bl.BadLines() > 0 {
		fmt.Fprintf(os.Stderr, "skipped %d malformed lines\n", bl.BadLines())
	}
	fmt.Fprintf(os.Stderr, "converted %d records into %s\n", tw.Count(), *out)
	return f.Close()
}

func synth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "random seed")
	n := fs.Int("n", 1000000, "records to generate")
	out := fs.String("o", "synth.vsct", "output trace file")
	fs.Parse(args)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	recs := trace.Synthesize(*seed, *n)
	if err := trace.Write(f, recs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "synthesized %d records (seed %d) into %s\n", len(recs), *seed, *out)
	return f.Close()
}
