package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: the bound
// each end-to-end metric carries.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// readRecords loads the run records a -out file holds, one JSON object a
// line, and groups the untraced ones' end-to-end values by workload and
// metric. Traced runs carry tracing's overhead and are left out.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

// verdict applies choosing-metrics §6.5 to one (metric, workload) pair:
// b is worse when its median is past the bound; when either side's own
// run-to-run spread is wider than the bound the pair is unresolved, unless
// every run of b reads better than every run of a. setup_s is held to its
// median only, as the driver holds it: a set-up of a tenth of a second
// cannot repeat to a quarter of itself.
func verdict(d metricDef, a, b summary) (string, float64) {
	change := (b.Median - a.Median) / math.Abs(a.Median) // > 0 means b reads higher
	worsening, allBetter := change, b.Max < a.Min
	if d.Better == "higher" {
		worsening, allBetter = -change, b.Min > a.Max
	}
	switch {
	case allBetter:
		return "better", worsening
	case d.Name != "setup_s" && (a.spread() > d.Bound || b.spread() > d.Bound):
		return "unresolved", worsening
	case worsening > d.Bound:
		return "worse", worsening
	case worsening < -d.Bound:
		return "better", worsening
	default:
		return "within bound", worsening
	}
}

// compareFiles prints one row per (metric, workload) and returns 1 when any
// row is worse or unresolved: the A/A criterion is that two sets of runs of
// the same code produce neither.
func compareFiles(stdout, stderr io.Writer, specPath, pathA, pathB string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench -compare: %v\n", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "bench -compare: %s: %v\n", specPath, err)
		return 2
	}
	a, err := readRecords(pathA)
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = readRecords(pathB); err == nil {
			return printComparison(stdout, spec, a, b)
		}
	}
	fmt.Fprintf(stderr, "bench -compare: %v\n", err)
	return 2
}

func printComparison(w io.Writer, spec benchmarkSpec, a, b map[string]map[string][]float64) int {
	var names []string
	for name := range a {
		if b[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-14s %-22s %5s %14s %14s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "a median", "b median", "worsening", "a iqr", "b iqr", "bound", "verdict")
	for _, wl := range names {
		for _, d := range spec.EndToEnd {
			sa, sb := summarize(a[wl][d.Name]), summarize(b[wl][d.Name])
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			v, worsening := verdict(d, sa, sb)
			if v == "worse" || v == "unresolved" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-22s %2d/%-2d %14.6g %14.6g %8.2f%% %7.2f%% %7.2f%% %6.0f%%  %s\n",
				wl, d.Name, sa.N, sb.N, sa.Median, sb.Median, worsening*100, sa.spread()*100, sb.spread()*100, d.Bound*100, v)
		}
	}
	return code
}
