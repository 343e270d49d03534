package workload

import (
	"fmt"
	"math/rand"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// AccessSpec is an Iometer-style access specification (§5.1): block size,
// read and random percentages, and the number of outstanding I/Os to keep in
// flight against a raw virtual disk.
type AccessSpec struct {
	// Name labels the spec, e.g. "4KB Sequential Read".
	Name string
	// BlockBytes is the transfer size.
	BlockBytes int64
	// ReadPct is the percentage of operations that are reads (0–100).
	ReadPct int
	// RandomPct is the percentage of operations at a random offset; the
	// rest continue sequentially (0–100).
	RandomPct int
	// Outstanding is the I/O depth maintained.
	Outstanding int
	// RegionSectors restricts the workload to the first N sectors of the
	// disk (0 = whole disk), matching the paper's "separate 6 GB virtual
	// disks".
	RegionSectors uint64
	// Timeout aborts commands still outstanding after this long, the way
	// a guest SCSI driver's error handler would (0 = never). Aborted
	// commands count as errors and immediately refill the window.
	Timeout simclock.Time
	// Seed drives offset and op-type selection.
	Seed int64
}

// FourKSeqRead is the paper's Table 2 microbenchmark pattern: "we used the
// 4KB Sequential Read workload pattern ... small sizes are the worst case"
// for per-I/O overhead.
func FourKSeqRead(outstanding int) AccessSpec {
	return AccessSpec{Name: "4KB Sequential Read", BlockBytes: 4 << 10,
		ReadPct: 100, RandomPct: 0, Outstanding: outstanding, Seed: 1}
}

// EightKRandomRead and EightKSeqRead are the §5.3 multi-VM workloads: "8K
// random reads and 8K sequential reads ... In each case, 32 outstanding
// I/Os were issued."
func EightKRandomRead() AccessSpec {
	return AccessSpec{Name: "8K Random Read", BlockBytes: 8 << 10,
		ReadPct: 100, RandomPct: 100, Outstanding: 32, Seed: 2}
}

// EightKSeqRead is the sequential counterpart of EightKRandomRead.
func EightKSeqRead() AccessSpec {
	return AccessSpec{Name: "8K Sequential Read", BlockBytes: 8 << 10,
		ReadPct: 100, RandomPct: 0, Outstanding: 32, Seed: 3}
}

// Iometer drives a raw virtual disk with an access specification,
// maintaining a constant number of outstanding commands: every completion
// immediately issues the next I/O, saturating the target like the original
// tool ("it performs I/O operations in order to stress the system").
type Iometer struct {
	spec AccessSpec
	eng  *simclock.Engine
	disk *vscsi.Disk
	pick picker

	running bool
	stats   Stats

	// completed is the one completion callback every command shares (a
	// command's start is its Request's IssueTime).
	completed func(*vscsi.Request)
	// timers holds the armed abort timer of every outstanding command, by
	// request ID, so complete can cancel it (Timeout > 0 only).
	timers map[uint64]simclock.Handle
}

// NewIometer prepares a generator against a raw virtual disk.
func NewIometer(eng *simclock.Engine, disk *vscsi.Disk, spec AccessSpec) *Iometer {
	if spec.Outstanding <= 0 {
		panic("workload: Iometer needs outstanding >= 1")
	}
	im := &Iometer{spec: spec, eng: eng, disk: disk,
		pick: newPicker("Iometer", disk, spec.BlockBytes, spec.RegionSectors, spec.ReadPct, spec.RandomPct, spec.Seed)}
	im.completed = im.complete
	if spec.Timeout > 0 {
		im.timers = make(map[uint64]simclock.Handle, spec.Outstanding)
	}
	return im
}

// Name implements Generator.
func (im *Iometer) Name() string { return fmt.Sprintf("iometer/%s", im.spec.Name) }

// Start issues the initial window of outstanding I/Os as one burst through
// the batched vSCSI path: the window arrives at a single virtual instant
// either way, and IssueBatch lets the observation layer process it with one
// observer dispatch and one stream-mutex acquisition. For the asynchronous
// storage backends the burst is bit-identical to issuing the window in a
// loop; thereafter every completion refills the window one command at a
// time, exactly like the original tool.
func (im *Iometer) Start() {
	im.running = true
	cmds := make([]scsi.Command, im.spec.Outstanding)
	for i := range cmds {
		cmds[i] = im.pick.next()
	}
	rs, err := im.disk.IssueBatch(cmds, im.completed)
	if err != nil {
		// The loop path would have failed each issue individually.
		im.stats.Errors += int64(len(cmds))
		return
	}
	if im.spec.Timeout > 0 {
		for _, r := range rs {
			im.scheduleTimeout(r)
		}
	}
}

// Stop ceases issuing; in-flight I/Os complete normally.
func (im *Iometer) Stop() { im.running = false }

// Stats implements Generator.
func (im *Iometer) Stats() Stats { return im.stats }

// complete accounts one finished command and refills the window.
func (im *Iometer) complete(r *vscsi.Request) {
	im.stats.Ops++
	im.stats.Bytes += im.spec.BlockBytes
	im.stats.TotalLatency += im.eng.Now() - r.IssueTime
	if r.Status != scsi.StatusGood {
		im.stats.Errors++
	}
	// Disarm the command's abort timer: left in the engine it would sit
	// there for Timeout, and then abort whichever later command the disk
	// has reused the Request for.
	if h, ok := im.timers[r.ID]; ok {
		h.Cancel()
		delete(im.timers, r.ID)
	}
	im.issue()
}

// scheduleTimeout arms the guest-driver-style abort timer for one request.
func (im *Iometer) scheduleTimeout(req *vscsi.Request) {
	im.timers[req.ID] = im.eng.After(im.spec.Timeout, func(simclock.Time) {
		im.disk.Abort(req)
	})
}

func (im *Iometer) issue() {
	if !im.running {
		return
	}
	req, err := im.disk.Issue(im.pick.next(), im.completed)
	if err != nil {
		im.stats.Errors++
		return
	}
	if im.spec.Timeout > 0 {
		im.scheduleTimeout(req)
	}
}

// picker draws commands from a block size and read/random mix over the
// first region sectors of a raw disk: the command stream Iometer and Paced
// share. A command takes its draws in a fixed order — random or sequential,
// then the random slot, then read or write — so a seed names one stream.
type picker struct {
	rng       *rand.Rand
	blocks    uint32
	region    uint64
	readPct   int
	randomPct int
	cursor    uint64
}

// newPicker checks the block size, the mix and that one block fits the
// region, panicking with a message naming the generator who on a bad spec.
// regionSectors 0, or more than the disk holds, means the whole disk.
func newPicker(who string, disk *vscsi.Disk, blockBytes int64, regionSectors uint64, readPct, randomPct int, seed int64) picker {
	if blockBytes <= 0 || blockBytes%512 != 0 {
		panic("workload: " + who + " block size must be a positive multiple of 512")
	}
	if readPct < 0 || readPct > 100 || randomPct < 0 || randomPct > 100 {
		panic("workload: " + who + " percentages must be 0-100")
	}
	region := disk.CapacitySectors()
	if regionSectors != 0 && regionSectors < region {
		region = regionSectors
	}
	blocks := uint32(blockBytes / 512)
	if region < uint64(blocks) {
		panic(fmt.Sprintf("workload: %s block of %d sectors does not fit a region of %d", who, blocks, region))
	}
	return picker{rng: simclock.NewRand(seed), blocks: blocks, region: region,
		readPct: readPct, randomPct: randomPct}
}

// next draws the next command.
func (p *picker) next() scsi.Command {
	var lba uint64
	if p.rng.Intn(100) < p.randomPct {
		lba = uint64(p.rng.Int63n(int64(p.region/uint64(p.blocks)))) * uint64(p.blocks)
	} else {
		if p.cursor+uint64(p.blocks) > p.region {
			p.cursor = 0
		}
		lba = p.cursor
		p.cursor += uint64(p.blocks)
	}
	if p.rng.Intn(100) < p.readPct {
		return scsi.Read(lba, p.blocks)
	}
	return scsi.Write(lba, p.blocks)
}
