// Command bench is the repository's benchmark: four closed-loop workloads
// over the vSCSI observation → collector → agent → wire → aggregator →
// segment log → region/global pipeline, each reporting the end-to-end
// metrics of BENCHMARK.json and, in a traced run, a per-layer budget taken
// from spans around the calls into each layer's public functions.
//
//	bench --workload fleet_tree --seed 7 --seconds 20 --trace 0   # one run; last stdout line is the result JSON
//	bench --seed 7                                                 # all workloads, untraced then traced
//	bench -compare a.jsonl b.jsonl                                 # verdict per (metric, workload) from -out records
//
// See README.md in this directory for the workloads, the metric tables and
// how to read the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// provenance is the machine and build record every output carries.
type provenance struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	DataDir    string  `json:"data_dir"`
	DataFS     string  `json:"data_fs"`
}

// env is what a workload run is given: the generated-input seed, the
// measuring time, the load-shape limits and where to put spans and files.
type env struct {
	seed    int64
	seconds float64
	procs   int // GOMAXPROCS: the cap on workers and HTTP connections
	sz      sizes
	dataDir string
	tr      *tracer // nil in an untraced run
	root    spanID
}

// segments runs a workload's timed loop. An untraced run gives it the whole
// of --seconds. A traced run gives it 30 % with spans off — the baseline
// bench.trace_overhead_share is taken against — then switches spans on and
// gives it 40 %, leaving the rest for the probes; spans stay on until the
// run ends.
func segments[T any](e *env, loop func(d time.Duration) T) (spansOff, measured T) {
	budget := time.Duration(e.seconds * float64(time.Second))
	if e.tr == nil {
		return spansOff, loop(budget)
	}
	spansOff = loop(budget * 3 / 10)
	e.tr.on.Store(true)
	return spansOff, loop(budget * 4 / 10)
}

// instance is one set-up workload. measure runs the timed loop and the
// correctness gate into res; close stops every goroutine and server the
// set-up started and waits for them.
type instance interface {
	measure(e *env, res *result)
	close()
}

type workloadDef struct {
	Name  string
	Why   string
	setup func(e *env) (instance, error)
}

var workloads = []workloadDef{
	{"leaf_observe", "paper Table 2 on the leaf fast path: histogram, core and vscsi do all the work and fleet none; the shared-collector blocks run the same layer under contention", setupLeaf},
	{"fleet_tree", "the only workload where a leaf command crosses every tier: seeded vscsim hosts, real agents over loopback HTTP, region aggregators with segment logs, re-export, global scrape", setupTree},
	{"fleet_durable", "the wire, aggregator and log code with writes beside reads: full and delta frames ingested and logged, boot replay, history windows; the simulator does nothing", setupDurable},
	{"trace_replay", "trace parsers, merge and core batch insert with no fleet and no vscsi.Disk; native against MSR CSV separates parse cost from replay cost", setupReplay},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all four, untraced then traced)")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 20, "measuring time per run")
		trace    = fs.Int("trace", 0, "1 = traced run: spans around every layer call, per-layer metrics, Chrome trace")
		out      = fs.String("out", "", "append one JSON run record per run to this file (input of -compare)")
		traceOut = fs.String("trace-out", filepath.Join(".bench_build", "trace.json"), "where a traced run writes its Chrome trace")
		dataRoot = fs.String("data-dir", filepath.Join(".bench_build", "data"), "root for segment-log directories")
		compare  = fs.Bool("compare", false, "compare two -out files under BENCHMARK.json's bounds: bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench -compare needs two run-record files")
			return 2
		}
		return compareFiles(stdout, stderr, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}

	// Load shape: never more runnable goroutines than the box has cores,
	// and never more than 4, so a 2-core and an 8-core machine run the
	// same closed loops.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var todo []workloadDef
	traced := []bool{*trace == 1}
	if *workload == "" {
		todo, traced = workloads, []bool{false, true}
	} else {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		todo = []workloadDef{w}
	}

	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: data dir: %v\n", err)
		return 1
	}
	prov := provenance{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Commit: vcsRevision(), Seed: *seed, Seconds: *seconds,
		DataDir: *dataRoot, DataFS: filesystemOf(*dataRoot),
	}
	fmt.Fprintf(stdout, "# bench nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g data_dir=%s (%s)\n",
		prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Commit, prov.Seed, prov.Seconds, prov.DataDir, prov.DataFS)

	var tr *tracer
	code := 0
	var last *result
	for _, w := range todo {
		for _, withTrace := range traced {
			e := &env{seed: *seed, seconds: *seconds, procs: procs, sz: fullSizes}
			if withTrace {
				if tr == nil {
					tr = newTracer()
				}
				e.tr = tr
			}
			dir, err := os.MkdirTemp(*dataRoot, w.Name+"-")
			if err != nil {
				fmt.Fprintf(stderr, "bench: data dir: %v\n", err)
				return 1
			}
			e.dataDir = dir
			res := runWorkload(w, e)
			os.RemoveAll(dir)
			res.Provenance = prov
			printReport(stdout, res)
			if *out != "" {
				if err := appendRecord(*out, res); err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					code = 1
				}
			}
			if !res.Correct {
				code = 1
			}
			last = res
		}
	}
	if tr != nil {
		if err := tr.writeChromeTrace(*traceOut); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "# chrome trace: %s (%d spans)\n", *traceOut, len(tr.finished()))
		}
	}
	if *workload != "" {
		// The driver's contract: the last stdout line is the result object.
		line, err := json.Marshal(last.contractLine())
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runWorkload sets the workload up sizes.setupRepeats times (set-up time is
// a fenced metric, so it gets a median like every other timing), measures
// on the last instance, and fills in the metrics every workload shares.
func runWorkload(w workloadDef, e *env) *result {
	res := newResult(w.Name, e.tr != nil)
	resetPeakRSS()
	if e.tr != nil {
		e.root = e.tr.record("bench."+w.Name, 0, 0)
		defer func() {
			e.tr.on.Store(false)
			e.tr.end(e.root, res.Attempted)
		}()
	}
	var inst instance
	var setups []float64
	for i := 0; i < e.sz.setupRepeats; i++ {
		if inst != nil {
			inst.close()
			// Collect the discarded instance now, so peak_rss_mb is one
			// instance's footprint and not a race between three set-ups'
			// garbage and the collector's pacing.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(e); err != nil {
			res.problem("set-up: %v", err)
			res.finish()
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	inst.measure(e, res)
	res.put("setup_s", median(setups), setups)
	res.put("peak_rss_mb", peakRSSMiB(), nil)
	res.finish()
	return res
}

// result is one run of one workload: the correctness verdict, the
// operation counts, and every metric with its distribution.
type result struct {
	Provenance provenance             `json:"provenance"`
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Problems   []string               `json:"problems,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Stats *summary `json:"stats,omitempty"` // distribution of the samples behind Value
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Correct: true, Metrics: map[string]metricValue{}}
}

// problem records a correctness-gate failure; the run still prints its
// metrics and then exits non-zero.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// op counts closed-loop operations (pushes, re-exports, scrapes, replays,
// commands) and how many of them failed.
func (r *result) op(attempted, failed int64) {
	r.Attempted += attempted
	r.Failed += failed
}

// put records a metric by its catalog name. samples, when given, are the
// per-sample values Value summarizes.
func (r *result) put(name string, value float64, samples []float64) {
	def, ok := findMetric(endToEnd, name)
	if !ok {
		if def, ok = findMetric(perLayer, name); !ok {
			panic("bench: metric " + name + " is not in the catalog")
		}
	}
	mv := metricValue{Value: value, Unit: def.Unit}
	if len(samples) > 0 {
		s := summarize(samples)
		mv.Stats = &s
	}
	r.Metrics[name] = mv
}

// putMedian records the median of samples.
func (r *result) putMedian(name string, samples []float64) { r.put(name, median(samples), samples) }

// finish enforces the output contract: every end-to-end metric present and
// non-zero; in a traced run every per-layer metric present, with 0 standing
// for "this workload does not touch that layer".
func (r *result) finish() {
	if r.Attempted < 1 {
		r.problem("no operation attempted")
		r.Attempted = 1
	}
	if r.Failed > 0 {
		r.problem("%d of %d operations failed", r.Failed, r.Attempted)
	}
	for _, d := range endToEnd {
		if mv, ok := r.Metrics[d.Name]; !ok || mv.Value == 0 {
			r.problem("end-to-end metric %s missing or zero", d.Name)
			r.Metrics[d.Name] = metricValue{Unit: d.Unit}
		}
	}
	if r.Traced {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.Metrics[d.Name] = metricValue{Unit: d.Unit}
			}
		}
	}
}

// contractLine is the driver's result object: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one, each as value+unit.
func (r *result) contractLine() map[string]any {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]vu{}
	for _, d := range defs {
		metrics[d.Name] = vu{r.Metrics[d.Name].Value, d.Unit}
	}
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	}
}

func appendRecord(path string, r *result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode run record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open run-record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append run record: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close run-record file: %w", err)
	}
	return nil
}

// printReport prints every metric by name with unit, sample count, spread
// and (end-to-end) regression bound.
func printReport(w io.Writer, r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s (%s): %s, %d operations attempted, %d failed\n", r.Workload, mode, verdict, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	row := func(d metricDef, note string) {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		line := fmt.Sprintf("  %-34s %16.6g %-6s", d.Name, mv.Value, d.Unit)
		if s := mv.Stats; s != nil {
			line += fmt.Sprintf(" n=%-5d min=%.6g q1=%.6g med=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound=%g%%", d.Bound*100)
		}
		if note != "" {
			line += "  # " + note
		}
		fmt.Fprintln(w, line)
	}
	for _, d := range endToEnd {
		row(d, endToEndMeaning[r.Workload][d.Name])
	}
	if !r.Traced {
		return
	}
	var names []string
	for _, d := range perLayer {
		if r.Metrics[d.Name].Value != 0 {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(w, "  -- per layer (layers this workload does not touch read 0 and are not listed)")
	for _, n := range names {
		d, _ := findMetric(perLayer, n)
		row(d, "")
	}
}

// vcsRevision is the commit the binary was built from, when the build ran
// inside a git work tree; the driver's checkout is not one.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem holding path, from /proc/mounts; the
// segment-log numbers mean something different on tmpfs than on a disk.
func filesystemOf(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fsType := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fsType = mnt, f[2]
		}
	}
	return fsType
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark, so that in an all-workloads
// run each workload reports its own peak. Best effort: a kernel that
// refuses leaves the mark cumulative, which the first workload never sees.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
