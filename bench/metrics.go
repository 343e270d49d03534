package main

// metricDef is one row of BENCHMARK.json. The catalog below is the
// program's copy; bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, share of the parent's median
}

// endToEnd lists what a user of the system sees. The driver requires every
// run to print every end-to-end metric, so each is a kind of quantity and
// each workload fills it with its own figure (endToEndMeaning, README.md).
// Timings are medians over the run's samples, but for trace_replay's two
// rates, which are those of the run's fastest pass (replay.go says why).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"alt_throughput_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"bytes_per_op", "B", "lower", 0.05},
}

// endToEndMeaning says what each workload puts in each end-to-end metric,
// with the ISSUE 12 name of the figure in brackets.
var endToEndMeaning = map[string]map[string]string{
	"leaf_observe": {
		"throughput_per_s":     "commands/s one issuing thread sustains with stats on, private collector [1e9 / observe_on_ns_per_cmd]",
		"alt_throughput_per_s": "commands/s per thread when every thread observes into one shared collector [1e9 / observe_shared_ns_per_cmd]",
		"latency_ms_p50":       "ms that stats-on adds to 1M commands, median of adjacent on−off block pairs [observe_overhead_ns_per_cmd; ms per 1M = ns per command]",
		"bytes_per_op":         "heap bytes allocated per command with stats on",
	},
	"fleet_tree": {
		"throughput_per_s":     "leaf commands made visible at the global tier per wall second [tree_cmds_per_s]",
		"alt_throughput_per_s": "leaf host pushes/s through agent → wire → region ingest → log during PushAll (where SimPushAll256 regressed)",
		"latency_ms_p50":       "ms from PushAll start (capture) to the global scrape that contains the round [tree_visible_ms_p50]",
		"bytes_per_op":         "leaf wire bytes per push [tree_leaf_wire_bytes_per_push]",
	},
	"fleet_durable": {
		"throughput_per_s":     "frames encoded, POSTed, ingested and logged per second [durable_ingest_pushes_per_s]",
		"alt_throughput_per_s": "History(from,to) window queries per second [1000 / durable_history_ms_p50]",
		"latency_ms_p50":       "ms per OpenAggregator boot replay [durable_recover_ms_p50]",
		"bytes_per_op":         "segment-log bytes per ingested frame",
	},
	"trace_replay": {
		"throughput_per_s":     "native-format records/s through Open → ReplayParallel, fastest pass of the run [replay_native_recs_per_s]",
		"alt_throughput_per_s": "MSR-Cambridge CSV records/s through Open → ReplayParallel, fastest pass of the run [replay_msr_recs_per_s]",
		"latency_ms_p50":       "ms to read the CSV trace to its end on one goroutine, as vscsitrace convert does first; a sample is the fastest of 8 consecutive reads",
		"bytes_per_op":         "heap bytes allocated per native record replayed",
	},
}

// perLayer lists the traced run's rows: one layer's work count, busy time
// or failures, named module.figure. A workload prints 0 for a layer it does
// not touch — that zero is the "bypasses this layer" prediction, recorded.
var perLayer = []metricDef{
	// leaf_observe
	{Name: "vscsi.issue_off_ns", Unit: "ns", Better: "lower"},
	{Name: "vscsi.allocs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "histogram.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "core.on_issue_ns", Unit: "ns", Better: "lower"},
	{Name: "core.on_complete_ns", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_cmd", Unit: "count", Better: "lower"},
	{Name: "core.shared_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "core.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "core.registry_snapshots_us", Unit: "us", Better: "lower"},
	{Name: "core.bytes_per_collector", Unit: "B", Better: "lower"},
	{Name: "leaf.observe_on_ns", Unit: "ns", Better: "lower"},
	{Name: "leaf.residual_ns", Unit: "ns", Better: "lower"},
	// fleet_tree, per round
	{Name: "tree.round_ms", Unit: "ms", Better: "lower"},
	{Name: "tree.visible_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "vscsim.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "vscsim.cmds_per_round", Unit: "count", Better: "higher"},
	{Name: "fleet.agent.push_all_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.agent.self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.wire.http_us", Unit: "us", Better: "lower"},
	{Name: "fleet.aggregator.serve_us", Unit: "us", Better: "lower"},
	{Name: "fleet.reexport.export_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.reexport.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "fleet.aggregator.global_serve_us", Unit: "us", Better: "lower"},
	{Name: "fleet.aggregator.scrape_us", Unit: "us", Better: "lower"},
	{Name: "tree.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.agent.pushes", Unit: "count", Better: "higher"},
	{Name: "fleet.agent.delta_share", Unit: "ratio", Better: "higher"},
	{Name: "fleet.agent.resyncs", Unit: "count", Better: "lower"},
	{Name: "fleet.agent.retries", Unit: "count", Better: "lower"},
	{Name: "fleet.agent.dropped", Unit: "count", Better: "lower"},
	{Name: "fleet.aggregator.rejected", Unit: "count", Better: "lower"},
	// frame probe (fleet_tree's teed frames, fleet_durable's rendered ones)
	{Name: "fleet.wire.encode_us", Unit: "us", Better: "lower"},
	{Name: "fleet.wire.decode_us", Unit: "us", Better: "lower"},
	{Name: "fleet.wire.validate_us", Unit: "us", Better: "lower"},
	{Name: "fleet.wire.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "fleet.aggregator.ingest_us", Unit: "us", Better: "lower"},
	{Name: "fleet.log.append_us", Unit: "us", Better: "lower"},
	{Name: "core.sub_us", Unit: "us", Better: "lower"},
	// fleet_durable
	{Name: "fleet.log.bytes_per_push", Unit: "B", Better: "lower"},
	{Name: "fleet.log.fsyncs", Unit: "count", Better: "lower"},
	{Name: "fleet.log.rotations", Unit: "count", Better: "lower"},
	{Name: "fleet.log.append_errors", Unit: "count", Better: "lower"},
	{Name: "fleet.aggregator.merge_cached_us", Unit: "us", Better: "lower"},
	{Name: "fleet.aggregator.merge_dirty_us", Unit: "us", Better: "lower"},
	{Name: "fleet.log.replay_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "fleet.log.frames_replayed", Unit: "count", Better: "higher"},
	{Name: "fleet.log.torn_tails", Unit: "count", Better: "lower"},
	{Name: "fleet.history.query_us_per_frame", Unit: "us", Better: "lower"},
	{Name: "fleet.history.frames_scanned", Unit: "count", Better: "lower"},
	// trace_replay
	{Name: "trace.parse_native_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.parse_msr_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.replay_w1_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.replay_wN_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.merge_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "trace.allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "trace.bad_lines", Unit: "count", Better: "lower"},
	{Name: "trace.reorder_violations", Unit: "count", Better: "lower"},
	// whole run
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
