package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeSizes shrinks every sample so all four workloads, traced and
// untraced, finish in a few seconds.
var smokeSizes = sizes{
	setupRepeats: 1,
	minSamples:   2,

	leafBlockCmds: 5_000,
	leafMixLen:    1 << 12,

	treeRegions:        2,
	treeHostsPerRegion: 3,
	treeVMsPerHost:     2,
	treeWarmRounds:     2,
	treeGateEvery:      2,

	durHosts:        8,
	durFrames:       4,
	durTemplates:    2,
	durScrapeEvery:  8,
	durHistoryQuery: 2,

	replayRecords: 1 << 13,
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestCatalogMatchesBenchmarkJSON keeps the program's metric and workload
// catalog and BENCHMARK.json from drifting apart.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	f := loadBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the catalog:\n json %+v\n code %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the catalog:\n json %+v\n code %+v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, f.Workloads[i], w.Name, w.Why)
		}
		for _, d := range endToEnd[2:] {
			if endToEndMeaning[w.Name][d.Name] == "" {
				t.Errorf("workload %s does not say what it reports as %s", w.Name, d.Name)
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at smoke
// size with the correctness gate on, and holds the outputs to the driver's
// contract and the trace to "every span has a parent".
func TestSmokeAllWorkloads(t *testing.T) {
	tr := newTracer()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{seed: 5, seconds: 0.15, procs: 2, sz: smokeSizes, dataDir: t.TempDir()}
			if traced {
				e.tr = tr
			}
			res := runWorkload(w, e)
			if !res.Correct {
				t.Errorf("%s traced=%v: incorrect: %v", w.Name, traced, res.Problems)
				continue
			}
			line, err := json.Marshal(res.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if got.Correct == nil || !*got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Errorf("%s traced=%v: contract line %s", w.Name, traced, line)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.Name, traced, len(got.Metrics), len(want))
			}
			var nonZero int
			for _, d := range want {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.Name, traced, d.Name, m.Unit)
				}
				if m.Value != 0 {
					nonZero++
				}
			}
			if !traced && nonZero != len(want) {
				t.Errorf("%s: an end-to-end metric reads 0: %s", w.Name, line)
			}
			if traced && nonZero < 6 {
				t.Errorf("%s: only %d per-layer metrics are non-zero", w.Name, nonZero)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	ids := map[int]string{}
	for _, ev := range doc.TraceEvents {
		ids[ev.Args.ID] = ev.Name
	}
	roots := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Args.Parent == 0 && strings.HasPrefix(ev.Name, "bench."):
			roots++
		case ids[ev.Args.Parent] == "":
			t.Errorf("span %d (%s) has no parent in the trace (parent id %d)", ev.Args.ID, ev.Name, ev.Args.Parent)
		}
		if ev.Dur < 0 {
			t.Errorf("span %d (%s) ends before it starts", ev.Args.ID, ev.Name)
		}
	}
	if roots != len(workloads) {
		t.Errorf("%d root spans, want one per workload", roots)
	}
	for _, name := range []string{"tree.round", "fleet.agent.push_all", "fleet.wire.roundtrip", "fleet.aggregator.serve", "fleet.reexport.export", "fleet.aggregator.scrape", "core.Collector.OnIssue", "trace.ReplayParallel", "fleet.OpenAggregator", "fleet.Aggregator.History"} {
		found := false
		for _, n := range ids {
			if n == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s span in the trace", name)
		}
	}
}

// TestCompareVerdicts feeds -compare two sets of run records and checks
// each verdict class, with the bounds read from BENCHMARK.json.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, throughput, latency, rss []float64) string {
		path := filepath.Join(dir, name)
		for i := range throughput {
			r := newResult("fleet_tree", false)
			r.put("throughput_per_s", throughput[i], nil)
			r.put("latency_ms_p50", latency[i], nil)
			r.put("peak_rss_mb", rss[i], nil)
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []float64{100, 101, 99}, []float64{10, 10.1, 9.9}, []float64{1, 1.8, 0.6})
	b := write("b.jsonl", []float64{60, 61, 59}, []float64{8, 8.1, 7.9}, []float64{1, 1.7, 0.6})
	var out, errOut bytes.Buffer
	code := compareFiles(&out, &errOut, filepath.Join("..", "BENCHMARK.json"), a, b)
	if code != 1 {
		t.Errorf("exit code %d, want 1 (a row is worse); stderr: %s", code, errOut.String())
	}
	for metric, want := range map[string]string{
		"throughput_per_s": "worse", "latency_ms_p50": "better", "peak_rss_mb": "unresolved",
	} {
		var row string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " "+metric+" ") {
				row = line
			}
		}
		if !strings.HasSuffix(row, want) {
			t.Errorf("%s: row %q, want verdict %q", metric, row, want)
		}
	}
	out.Reset()
	c := write("c.jsonl", []float64{100, 101, 99}, []float64{10, 10.1, 9.9}, []float64{1, 1.02, 0.99})
	if code := compareFiles(&out, &errOut, filepath.Join("..", "BENCHMARK.json"), c, c); code != 0 {
		t.Errorf("A/A of identical records: exit code %d\n%s", code, out.String())
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("n=3 quartiles %+v", s)
	}
}
