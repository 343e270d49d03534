package workload

import (
	"fmt"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// Paced is the open-loop counterpart of Iometer: instead of saturating the
// device with a constant window of outstanding commands, it issues bursts at
// a target mean rate with exponentially distributed gaps (a Poisson arrival
// process) and does not wait for completions. That is the shape of a
// multi-tenant cloud datacenter — the Alibaba block-storage study found
// per-volume load heavy-tailed with most volumes nearly idle — and it is
// what lets a simulator multiplex a thousand hosts into one process: a
// closed-loop generator's event rate is set by device latency, an open-loop
// generator's by its spec.
//
// Like every generator here, Paced is a deterministic state machine: the
// same seed produces the same arrival instants and the same command stream.

// PacedSpec describes an open-loop arrival process against a raw virtual
// disk.
type PacedSpec struct {
	// Name labels the spec, e.g. "oltp".
	Name string
	// BlockBytes is the transfer size (multiple of 512).
	BlockBytes int64
	// ReadPct is the percentage of operations that are reads (0-100).
	ReadPct int
	// RandomPct is the percentage of operations at a random offset; the
	// rest continue sequentially (0-100).
	RandomPct int
	// IOPS is the mean arrival rate of bursts per virtual second.
	IOPS float64
	// Burst is the number of commands issued per arrival (default 1).
	// Bursts arrive at one virtual instant through the batched issue path,
	// so outstanding-I/O histograms see the burst shape.
	Burst int
	// MaxOutstanding caps commands in flight (default 64). An arrival that
	// would exceed the cap is skipped and counted (Throttled), modelling a
	// guest queue overflowing rather than an unbounded simulator heap.
	MaxOutstanding int
	// RegionSectors restricts the workload to the first N sectors
	// (0 = whole disk).
	RegionSectors uint64
	// Seed drives arrival times, offsets and op-type selection.
	Seed int64
}

// Paced drives a raw virtual disk with a PacedSpec.
type Paced struct {
	spec PacedSpec
	eng  *simclock.Engine
	disk *vscsi.Disk
	// pick draws the commands; its RNG also draws the arrival gaps.
	pick picker

	running   bool
	stats     Stats
	throttled int64

	// cmds is the burst buffer, completed the one completion callback and
	// arrived the one arrival event, all reused by every arrival: vscsi
	// copies each command into its Request, and a command's start is its
	// Request's IssueTime.
	cmds      []scsi.Command
	completed func(*vscsi.Request)
	arrived   simclock.Event
}

// NewPaced prepares an open-loop generator against a raw virtual disk.
func NewPaced(eng *simclock.Engine, disk *vscsi.Disk, spec PacedSpec) *Paced {
	if spec.IOPS <= 0 {
		panic("workload: Paced needs IOPS > 0")
	}
	if spec.Burst <= 0 {
		spec.Burst = 1
	}
	if spec.MaxOutstanding <= 0 {
		spec.MaxOutstanding = 64
	}
	p := &Paced{spec: spec, eng: eng, disk: disk,
		pick: newPicker("Paced", disk, spec.BlockBytes, spec.RegionSectors, spec.ReadPct, spec.RandomPct, spec.Seed),
		cmds: make([]scsi.Command, spec.Burst)}
	p.completed, p.arrived = p.complete, p.arrive
	return p
}

// Name implements Generator.
func (p *Paced) Name() string { return fmt.Sprintf("paced/%s", p.spec.Name) }

// Start schedules the first arrival; Stop ceases scheduling (in-flight
// commands complete normally).
func (p *Paced) Start() {
	if p.running {
		return
	}
	p.running = true
	p.eng.After(p.nextGap(), p.arrived)
}

// Stop implements Generator.
func (p *Paced) Stop() { p.running = false }

// Stats implements Generator.
func (p *Paced) Stats() Stats { return p.stats }

// Throttled reports arrivals skipped at the outstanding-I/O cap.
func (p *Paced) Throttled() int64 { return p.throttled }

// nextGap draws the next exponential inter-arrival gap, floored at one
// virtual nanosecond so the engine always advances.
func (p *Paced) nextGap() simclock.Time {
	gap := simclock.Time(p.pick.rng.ExpFloat64() / p.spec.IOPS * float64(simclock.Second))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// arrive issues one burst (unless capped) and schedules the next arrival.
func (p *Paced) arrive(simclock.Time) {
	if !p.running {
		return
	}
	if p.disk.Inflight()+p.spec.Burst > p.spec.MaxOutstanding {
		p.throttled++
	} else {
		p.issueBurst()
	}
	p.eng.After(p.nextGap(), p.arrived)
}

// issueBurst issues Burst commands at this instant; a single command goes
// through the plain issue path, larger bursts through the batched one.
func (p *Paced) issueBurst() {
	if p.spec.Burst == 1 {
		if _, err := p.disk.Issue(p.pick.next(), p.completed); err != nil {
			p.stats.Errors++
		}
		return
	}
	for i := range p.cmds {
		p.cmds[i] = p.pick.next()
	}
	if _, err := p.disk.IssueBatch(p.cmds, p.completed); err != nil {
		p.stats.Errors += int64(len(p.cmds))
	}
}

// complete accounts one finished command.
func (p *Paced) complete(r *vscsi.Request) {
	p.stats.Ops++
	p.stats.Bytes += p.spec.BlockBytes
	p.stats.TotalLatency += p.eng.Now() - r.IssueTime
	if r.Status != scsi.StatusGood {
		p.stats.Errors++
	}
}
