package main

// sizes fixes the amount of work in one sample of each workload. A run
// takes as many whole samples as fit in --seconds, so both sides of a
// comparison time identical units of work and a faster commit simply
// collects more of them. Nothing here is a flag: the benchmark is one
// configuration; bench_test.go's smoke sizes exist only to keep the tier-1
// test fast.
type sizes struct {
	// setupRepeats is how many times a run builds the workload; setup_s is
	// the median.
	setupRepeats int
	// minSamples is the floor on samples per timed figure, kept even when
	// --seconds is too short for it.
	minSamples int

	// leaf_observe: commands per worker per block, and the length of the
	// pre-generated command mix each worker cycles through.
	leafBlockCmds int
	leafMixLen    int

	// fleet_tree: regions × hosts × VMs, warm-up rounds before timing, and
	// how often the exactness gate runs.
	treeRegions        int
	treeHostsPerRegion int
	treeVMsPerHost     int
	treeWarmRounds     int
	treeGateEvery      int

	// fleet_durable: hosts × frames per cycle (1 full + the rest deltas),
	// template host states, pushes between scrapes, history queries per
	// cycle.
	durHosts        int
	durFrames       int
	durTemplates    int
	durScrapeEvery  int
	durHistoryQuery int

	// trace_replay: records synthesized.
	replayRecords int
}

var fullSizes = sizes{
	setupRepeats: 3,
	minSamples:   3,

	leafBlockCmds: 200_000,
	leafMixLen:    1 << 18,

	treeRegions:        4,
	treeHostsPerRegion: 16,
	treeVMsPerHost:     4,
	treeWarmRounds:     8,
	treeGateEvery:      16,

	durHosts:        32,
	durFrames:       8,
	durTemplates:    16,
	durScrapeEvery:  64,
	durHistoryQuery: 3,

	replayRecords: 1 << 18,
}
