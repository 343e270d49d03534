// Command benchfastpath measures the suite's performance-critical paths and
// maintains their committed before/after records:
//
//   - default: the observation fast path (BENCH_fastpath.json) — the
//     histogram + bin LUT + batched observer work. Table2StatsOn/Off and
//     MultiVMParallel at the root, Insert/InsertParallel in
//     internal/histogram (at -cpu 1,4), FleetMerge in internal/fleet, and
//     the 1M-record trace-replay engine (legacy vs streaming vs parallel,
//     the streaming ones at -cpu 1,4) in internal/trace.
//   - -fleet: the fleet tier (BENCH_fleet.json) — sharded ingest+scrape at
//     256/1024 simulated hosts, full vs delta wire bytes per push
//     interval, cached cluster merges, segment-log boot replay at 1024 hosts,
//     whole-fleet history window queries, simulated-datacenter ingest
//     (256 vscsim hosts' full state through the wire codec per op), and
//     the 10240-host federation tree vs flat fan-in (global-tier wire
//     bytes and churn-interval cost, tree re-export vs per-host push).
//
// It shells out to `go test -bench`, takes the minimum over -count runs
// (min-of-N discards scheduler noise; the floor is the honest cost), and
// prints a table. Secondary metrics a benchmark reports (wire_bytes/op)
// are captured alongside ns/op, and -update records each benchmark's
// median and (max-min)/min spread next to the minimum.
//
//	go run ./cmd/benchfastpath                         # measure and print
//	go run ./cmd/benchfastpath -fleet -update          # refresh BENCH_fleet.json
//	go run ./cmd/benchfastpath -check -against one-lock     # CI regression fence
//	go run ./cmd/benchfastpath -check -fleet           # CI fence, fleet ingest
//
// -check re-measures the fence benchmarks only (BenchmarkTable2StatsOn
// and BenchmarkTraceReplay1M, or BenchmarkFleetIngest1024,
// BenchmarkFleetReplay1024, BenchmarkFleetTreeIngest10k and
// BenchmarkSimPushAll256 with -fleet) and fails (exit 1) if any regressed
// more than -tolerance percent over the entry named by -against, so CI
// catches regressions without re-running the full suite. Relative fences measure both sides fresh in
// the same session so machine speed cancels out: streaming trace replay
// must stay at or below half the legacy materialize-and-sort cost
// (maxPct -50, i.e. the >=2x speedup claim), stats-on must stay within
// table2MaxPct of stats-off (one redundant insert per sample trips it),
// and with -fleet the traced-ingest variant
// (BenchmarkFleetIngest1024Traced) must cost no more than 5% over the
// untraced fence. Count fences are exact: BenchmarkTable2StatsOn
// allocates nothing — the disk recycles its Requests, each with its
// completion callback bound once, and the collector never allocated.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// benchFile is the on-disk shape of BENCH_fastpath.json.
type benchFile struct {
	Note    string       `json:"note"`
	Entries []benchEntry `json:"entries"`
}

// benchEntry is one labelled measurement set (e.g. "baseline", "current").
type benchEntry struct {
	Label      string             `json:"label"`
	Date       string             `json:"date,omitempty"`
	GoVersion  string             `json:"go,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	Count      int                `json:"count"`
	NsPerOp    map[string]float64 `json:"ns_per_op"`
	// MedianNsPerOp and SpreadPct describe the Count runs NsPerOp is the
	// minimum of: their median, and (max-min)/min in percent.
	MedianNsPerOp map[string]float64 `json:"median_ns_per_op,omitempty"`
	SpreadPct     map[string]float64 `json:"spread_pct,omitempty"`
	// Metrics holds any secondary per-op metrics the benchmarks reported,
	// keyed "BenchmarkName:unit/op" (e.g. wire_bytes/op).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchSpec is one `go test -bench` invocation: package path, -bench regex,
// extra args.
type benchSpec struct {
	pkg   string
	bench string
	extra []string
}

// suite lists the observation fast-path benchmarks.
var suite = []benchSpec{
	{".", "Table2Stats|MultiVMParallel", nil},
	{"./internal/histogram", "^BenchmarkInsert$|^BenchmarkInsertParallel$", []string{"-cpu", "1,4"}},
	{"./internal/fleet", "^BenchmarkFleetMerge$", nil},
	{"./internal/trace", "^BenchmarkTraceReplayLegacy1M$", nil},
	{"./internal/trace", "^BenchmarkTraceReplay1M(Parallel)?$", []string{"-cpu", "1,4"}},
}

// fleetSuite lists the fleet-tier benchmarks -fleet runs.
var fleetSuite = []benchSpec{
	{"./internal/fleet", "^BenchmarkFleetIngestScrapeSharded(256|1024)$|^BenchmarkFleetIngest1024(Traced)?$", nil},
	{"./internal/fleet", "^BenchmarkFleetWireBytes(Full|Delta)$", nil},
	{"./internal/fleet", "^BenchmarkFleetMergeCached$", nil},
	{"./internal/fleet", "^BenchmarkFleetReplay1024$|^BenchmarkFleetHistoryQuery$", nil},
	{"./internal/vscsim", "^BenchmarkSimPushAll256$", nil},
	{"./internal/vscsim", "^BenchmarkFleet(Tree|Flat)Ingest10k$", nil},
}

func main() {
	var (
		file      = flag.String("file", "", "benchmark record to read/update (default BENCH_fastpath.json, or BENCH_fleet.json with -fleet)")
		label     = flag.String("label", "current", "entry label to record under with -update")
		update    = flag.Bool("update", false, "record the measurements into -file (replaces an entry with the same label)")
		count     = flag.Int("count", 5, "runs per benchmark; the minimum is kept")
		benchtime = flag.String("benchtime", "", "per-run -benchtime (default: go test's 1s)")
		fleet     = flag.Bool("fleet", false, "run the fleet-tier suite instead of the fast-path suite")
		check     = flag.Bool("check", false, "regression fence: re-measure the fence benchmark and compare against -against")
		against   = flag.String("against", "baseline", "entry label -check compares against")
		tolerance = flag.Float64("tolerance", 25, "percent regression -check tolerates")
	)
	flag.Parse()

	// Two fast-path fences: the observation hot path, and the streaming
	// trace-replay engine (absolute, against the recorded entry). Plus two
	// relative fences, both sides measured fresh so machine speed cancels
	// out: streaming replay must stay at or below half the legacy
	// materialize-and-sort cost — a negative maxPct, meaning the claimed
	// >=2x single-core speedup is re-proven on every -check — and the
	// enabled service must stay within table2MaxPct of the disabled one.
	// And one count fence: a command through the enabled fast path
	// allocates nothing.
	benches := suite
	fences := []fence{
		{"BenchmarkTable2StatsOn", "."},
		{"BenchmarkTraceReplay1M", "./internal/trace"},
	}
	relFences := []relFence{{
		bench:   "BenchmarkTraceReplay1M",
		against: "BenchmarkTraceReplayLegacy1M",
		pkg:     "./internal/trace",
		maxPct:  -50,
	}, {
		bench:   "BenchmarkTable2StatsOn",
		against: "BenchmarkTable2StatsOff",
		pkg:     ".",
		maxPct:  table2MaxPct,
	}}
	countFences := []countFence{{"BenchmarkTable2StatsOn", "allocs/op", 0}}
	if *fleet {
		// Four fleet fences: the ingest fast path, the boot replay the
		// segment log added — a slow restart is a regression too — the
		// 10k-host federation tree's churn interval, and the simulated
		// datacenter's push hop (256 hosts' full state through the wire
		// codec per op), which regressed 2.75x unfenced once. Plus one
		// relative fence: traced ingest must stay within 5% of untraced,
		// both measured fresh in this session.
		benches = fleetSuite
		fences = []fence{
			{"BenchmarkFleetIngest1024", "./internal/fleet"},
			{"BenchmarkFleetReplay1024", "./internal/fleet"},
			{"BenchmarkFleetTreeIngest10k", "./internal/vscsim"},
			{"BenchmarkSimPushAll256", "./internal/vscsim"},
		}
		relFences = []relFence{{
			bench:   "BenchmarkFleetIngest1024Traced",
			against: "BenchmarkFleetIngest1024",
			pkg:     "./internal/fleet",
			maxPct:  5,
		}}
		countFences = nil
	}
	if *file == "" {
		*file = "BENCH_fastpath.json"
		if *fleet {
			*file = "BENCH_fleet.json"
		}
	}

	if *check {
		os.Exit(runCheck(*file, *against, fences, relFences, countFences, *count, *benchtime, *tolerance))
	}

	runs := make(samples)
	for _, s := range benches {
		if err := runBench(s.pkg, s.bench, *count, *benchtime, s.extra, runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	results := runs.mins()
	printTable(results)

	if !*update {
		return
	}
	ns, metrics := splitResults(results)
	median, spread := runs.medianAndSpread()
	entry := benchEntry{
		Label:      *label,
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Count:      *count,
		NsPerOp:    ns,
		Metrics:    metrics,

		MedianNsPerOp: median,
		SpreadPct:     spread,
	}
	note := "min-of-N ns/op for the observation fast path; maintained by cmd/benchfastpath"
	if *fleet {
		note = "min-of-N fleet-tier numbers (Mono/Uncached rows in older entries = the " +
			"pre-shard single-mutex aggregator without the merge cache, benchmarks since " +
			"deleted; each entry records the GOMAXPROCS and CPU count it was measured at); " +
			"maintained by cmd/benchfastpath -fleet"
	}
	if err := record(*file, note, entry); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "recorded %q in %s\n", *label, *file)
}

// samples holds every run's value per result key (parseBenchLine's keys).
type samples map[string][]float64

// mins is what the table, the record and the fences read.
func (s samples) mins() map[string]float64 {
	out := make(map[string]float64, len(s))
	for k, vs := range s {
		out[k] = slices.Min(vs)
	}
	return out
}

// medianAndSpread describes the runs behind each ns/op minimum: their
// median, and (max-min)/min in percent, rounded to 0.1.
func (s samples) medianAndSpread() (median, spreadPct map[string]float64) {
	median, spreadPct = make(map[string]float64), make(map[string]float64)
	for k, vs := range s {
		if strings.Contains(k, ":") {
			continue
		}
		vs = slices.Clone(vs)
		slices.Sort(vs)
		lo, hi := vs[0], vs[len(vs)-1]
		median[k] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		spreadPct[k] = math.Round(1000*(hi-lo)/lo) / 10
	}
	return median, spreadPct
}

// runBench executes one `go test -bench` invocation and appends every run's
// ns/op per benchmark name to results. Under an explicit -cpu list names keep go
// test's -N GOMAXPROCS suffix (absent at cpu=1), so
// "BenchmarkInsertParallel" and "BenchmarkInsertParallel-4" record
// separately. Without one, every name carries the same suffix — this
// machine's GOMAXPROCS, which the entry records anyway — and it is dropped:
// a fence looks its benchmark up by bare name, on any machine.
func runBench(pkg, bench string, count int, benchtime string, extra []string, results samples) error {
	suffix := "-" + strconv.Itoa(runtime.GOMAXPROCS(0))
	for _, arg := range extra {
		if arg == "-cpu" {
			suffix = ""
		}
	}
	args := []string{"test", "-run", "^$", "-bench", bench, "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, extra...)
	args = append(args, pkg)
	fmt.Fprintf(os.Stderr, "go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchfastpath: %s: %v\n%s", pkg, err, out.String())
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		for key, v := range parseBenchLine(sc.Text(), suffix) {
			results[key] = append(results[key], v)
		}
	}
	return sc.Err()
}

// parseBenchLine extracts every per-op metric from a `go test -bench`
// result line:
//
//	BenchmarkFleetWireBytesFull   1226   970947 ns/op   3599 wire_bytes/op
//
// ns/op is keyed by the benchmark name less trimSuffix (the historical
// shape of BENCH_fastpath.json); every other unit is keyed "name:unit/op".
func parseBenchLine(line, trimSuffix string) map[string]float64 {
	if !strings.HasPrefix(line, "Benchmark") {
		return nil
	}
	f := strings.Fields(line)
	f[0] = strings.TrimSuffix(f[0], trimSuffix)
	var out map[string]float64
	for i := 2; i < len(f); i++ {
		if !strings.HasSuffix(f[i], "/op") {
			continue
		}
		v, err := strconv.ParseFloat(f[i-1], 64)
		if err != nil {
			continue
		}
		key := f[0]
		if f[i] != "ns/op" {
			key = f[0] + ":" + f[i]
		}
		if out == nil {
			out = make(map[string]float64)
		}
		out[key] = v
	}
	return out
}

// splitResults separates bare-name ns/op entries from "name:unit/op"
// secondary metrics.
func splitResults(results map[string]float64) (ns, metrics map[string]float64) {
	ns = make(map[string]float64)
	for k, v := range results {
		if strings.Contains(k, ":") {
			if metrics == nil {
				metrics = make(map[string]float64)
			}
			metrics[k] = v
		} else {
			ns[k] = v
		}
	}
	return ns, metrics
}

func printTable(results map[string]float64) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	// Stable order: suite order is lost in the map, lexical is fine here.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	for _, n := range names {
		unit := "ns/op"
		name := n
		if i := strings.IndexByte(n, ':'); i >= 0 {
			name, unit = n[:i], n[i+1:]
		}
		fmt.Printf("%-40s %12.2f %s (min)\n", name, results[n], unit)
	}
}

// record loads the JSON file (if any), replaces or appends the entry, and
// writes it back.
func record(path, note string, entry benchEntry) error {
	var f benchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("benchfastpath: %s: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if f.Note == "" {
		f.Note = note
	}
	replaced := false
	for i := range f.Entries {
		if f.Entries[i].Label == entry.Label {
			f.Entries[i] = entry
			replaced = true
		}
	}
	if !replaced {
		f.Entries = append(f.Entries, entry)
	}
	raw, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// fence is one absolute regression fence: a benchmark name and the
// package it lives in. Fences span packages (the federation tree bench
// sits in internal/vscsim, the ingest fences in internal/fleet), so
// runCheck groups them by package and runs one `go test -bench` each.
type fence struct {
	name, pkg string
}

// relFence is a same-session comparison: bench must run within maxPct of
// against, both measured fresh in this runCheck — no recorded entry, so
// machine-speed differences cancel out. Used for the traced-ingest
// observability overhead bound. Both benchmarks must live in pkg.
type relFence struct {
	bench, against string
	pkg            string
	maxPct         float64
}

// countFence is an exact fence on a secondary per-op metric (unit as go
// test prints it, e.g. "allocs/op"): a count repeats on any machine, so it
// needs neither a recorded entry nor a tolerance. The benchmark must be
// one a fence or relative fence already measures.
type countFence struct {
	bench, unit string
	want        float64
}

// table2MaxPct bounds BenchmarkTable2StatsOn over BenchmarkTable2StatsOff.
// It sits between the ratio measured with every sample inserted once
// (+182…+187% over six min-of-3 sessions, 2 vCPUs: 43 ns off, 122…123 ns
// on) and with one redundant insert per sample re-added in a scratch copy
// (+264…+267% over six: 156…157 ns on), so re-adding a redundant insert
// per sample fails the fence on any machine. The ratio is large because
// the stats-off path allocates nothing and costs 43 ns; the collector's
// absolute cost is the +79…+80 ns between the two.
const table2MaxPct = 225

// runCheck is the CI fence: measure the fence benchmarks fresh (one
// `go test -bench` run per package), compare each against the recorded
// entry (each relative fence against its in-session reference, each count
// fence against its exact value), and report pass/fail for the set.
func runCheck(path, against string, fences []fence, relFences []relFence, countFences []countFence, count int, benchtime string, tolerance float64) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfastpath: %v\n", err)
		return 1
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchfastpath: %s: %v\n", path, err)
		return 1
	}
	refs := make(map[string]float64, len(fences))
	for _, e := range f.Entries {
		if e.Label == against {
			for _, fc := range fences {
				refs[fc.name] = e.NsPerOp[fc.name]
			}
		}
	}
	for _, fc := range fences {
		if refs[fc.name] == 0 {
			fmt.Fprintf(os.Stderr, "benchfastpath: no %s under entry %q in %s\n", fc.name, against, path)
			return 1
		}
	}
	// One `go test -bench` per package, covering that package's fences
	// and relative-fence benchmarks together.
	perPkg := make(map[string][]string)
	pkgs := []string{}
	add := func(pkg, bench string) {
		if _, seen := perPkg[pkg]; !seen {
			pkgs = append(pkgs, pkg)
		}
		for _, have := range perPkg[pkg] {
			if have == bench {
				return
			}
		}
		perPkg[pkg] = append(perPkg[pkg], bench)
	}
	for _, fc := range fences {
		add(fc.pkg, fc.name)
	}
	for _, r := range relFences {
		add(r.pkg, r.bench)
		add(r.pkg, r.against)
	}
	runs := make(samples)
	for _, pkg := range pkgs {
		if err := runBench(pkg, "^("+strings.Join(perPkg[pkg], "|")+")$", count, benchtime, nil, runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	results := runs.mins()
	failed := 0
	for _, fc := range fences {
		got, ok := results[fc.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchfastpath: %s produced no result\n", fc.name)
			return 1
		}
		ref := refs[fc.name]
		limit := ref * (1 + tolerance/100)
		fmt.Printf("%s: %.2f ns/op, %s %q: %.2f ns/op, limit %+.0f%%: %.2f ns/op\n",
			strings.TrimPrefix(fc.name, "Benchmark"), got, path, against, ref, tolerance, limit)
		if got > limit {
			fmt.Printf("FAIL: %s regressed %.1f%% over %q\n", strings.TrimPrefix(fc.name, "Benchmark"), (got/ref-1)*100, against)
			failed++
		}
	}
	for _, r := range relFences {
		got, ok := results[r.bench]
		base, okBase := results[r.against]
		if !ok || !okBase {
			fmt.Fprintf(os.Stderr, "benchfastpath: relative fence %s vs %s missing a result\n", r.bench, r.against)
			return 1
		}
		limit := base * (1 + r.maxPct/100)
		fmt.Printf("%s: %.2f ns/op, in-session %s: %.2f ns/op, limit %+.0f%%: %.2f ns/op\n",
			strings.TrimPrefix(r.bench, "Benchmark"), got,
			strings.TrimPrefix(r.against, "Benchmark"), base, r.maxPct, limit)
		if got > limit {
			fmt.Printf("FAIL: %s costs %.1f%% over %s\n",
				strings.TrimPrefix(r.bench, "Benchmark"), (got/base-1)*100,
				strings.TrimPrefix(r.against, "Benchmark"))
			failed++
		}
	}
	for _, c := range countFences {
		got, ok := results[c.bench+":"+c.unit]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchfastpath: %s reported no %s\n", c.bench, c.unit)
			return 1
		}
		fmt.Printf("%s: %v %s, want exactly %v\n", strings.TrimPrefix(c.bench, "Benchmark"), got, c.unit, c.want)
		if got != c.want {
			fmt.Printf("FAIL: %s is %v %s, not %v\n", strings.TrimPrefix(c.bench, "Benchmark"), got, c.unit, c.want)
			failed++
		}
	}
	if failed > 0 {
		return 1
	}
	fmt.Println("OK")
	return 0
}
