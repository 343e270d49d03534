package workload

// The fleet personality mix: the workload population of a synthetic
// datacenter. The paper characterizes a handful of hand-picked workloads;
// a fleet-scale story needs the opposite — thousands of VMs drawn from a
// skewed population where most volumes are nearly idle and a heavy tail
// carries most of the traffic (the shape the Alibaba cloud block-storage
// study measured). Each personality is an open-loop PacedSpec template;
// Weight sets its share of a generated inventory and BaseIOPS its mean
// arrival rate at intensity 1.
//
// The personalities are deliberately separable by the environment-
// independent metrics classification uses (§3.7: I/O length, seek
// distance, outstanding I/Os, read fraction), so a catalog built from
// them can re-identify a VM's personality from its merged fleet view.

// FleetPersonality is one named class in a datacenter workload population.
type FleetPersonality struct {
	// Name identifies the personality, e.g. "oltp".
	Name string
	// Weight is the personality's relative share of a generated inventory.
	Weight int
	// BaseIOPS is the mean burst-arrival rate at intensity 1.
	BaseIOPS float64
	// BlockBytes, ReadPct, RandomPct and Burst shape the access mix (see
	// PacedSpec).
	BlockBytes int64
	ReadPct    int
	RandomPct  int
	Burst      int
}

// fleetPersonalities is the built-in population, ordered hot to cold in
// identity: small-block transactional through near-idle developer VMs.
var fleetPersonalities = []FleetPersonality{
	// Transactional database: 8K random, read-mostly, paired bursts.
	{Name: "oltp", Weight: 15, BaseIOPS: 1.5, BlockBytes: 8 << 10, ReadPct: 70, RandomPct: 100, Burst: 2},
	// Web/content serving: 16K mostly-random reads.
	{Name: "webserver", Weight: 20, BaseIOPS: 0.8, BlockBytes: 16 << 10, ReadPct: 95, RandomPct: 80, Burst: 1},
	// Log/ingest tenant: 4K sequential write-dominant appends in bursts —
	// the write-heavy cloud-volume class the 2007 workload set lacked.
	{Name: "logger", Weight: 15, BaseIOPS: 2.0, BlockBytes: 4 << 10, ReadPct: 5, RandomPct: 0, Burst: 4},
	// Analytics scan: 64K random reads in deep bursts.
	{Name: "analytics", Weight: 6, BaseIOPS: 0.5, BlockBytes: 64 << 10, ReadPct: 90, RandomPct: 100, Burst: 8},
	// Backup/streaming: 256K sequential reads.
	{Name: "backup", Weight: 4, BaseIOPS: 0.3, BlockBytes: 256 << 10, ReadPct: 100, RandomPct: 0, Burst: 1},
	// Developer/idle VM: the near-idle mass most of a fleet is made of.
	{Name: "devbox", Weight: 40, BaseIOPS: 0.05, BlockBytes: 4 << 10, ReadPct: 50, RandomPct: 50, Burst: 1},
}

// FleetPersonalities returns the built-in datacenter workload population.
// The slice is a copy; callers may reorder or reweight it.
func FleetPersonalities() []FleetPersonality {
	out := make([]FleetPersonality, len(fleetPersonalities))
	copy(out, fleetPersonalities)
	return out
}

// PacedSpec instantiates the personality as an open-loop access
// spec at the given intensity (a per-VM rate multiplier; the inventory
// generator draws it heavy-tailed) with the given RNG seed.
func (fp FleetPersonality) PacedSpec(seed int64, intensity float64) PacedSpec {
	if intensity <= 0 {
		intensity = 1
	}
	return PacedSpec{
		Name:       fp.Name,
		BlockBytes: fp.BlockBytes,
		ReadPct:    fp.ReadPct,
		RandomPct:  fp.RandomPct,
		IOPS:       fp.BaseIOPS * intensity,
		Burst:      fp.Burst,
		Seed:       seed,
	}
}
