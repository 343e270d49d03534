package fs

import (
	"sort"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// Elevator models the guest OS block-layer I/O scheduler sitting between a
// filesystem and the virtual disk. The paper observes the stream *below*
// this layer ("one thing that is not visible to the hypervisor is the time
// spent in the guest OS queues", §6) — request merging and LBA-order
// dispatch are precisely the transformations that shape what the hypervisor
// sees. The model batches requests for a short plug window, merges
// contiguous same-direction requests up to a size cap, optionally sorts a
// batch by ascending LBA (a one-way elevator pass), and dispatches.
type Elevator struct {
	eng  *simclock.Engine
	disk *vscsi.Disk
	cfg  ElevatorConfig

	queue   []*elevReq
	plugged bool

	merged     uint64
	dispatched uint64
}

// ElevatorConfig tunes the scheduler.
type ElevatorConfig struct {
	// PlugDelay is how long requests collect before a dispatch pass
	// (Linux's plug/unplug batching). Zero dispatches on the next event.
	PlugDelay simclock.Time
	// MaxMergeBytes caps a merged request (Linux max_sectors_kb).
	MaxMergeBytes int64
	// Sort enables LBA-ordered dispatch within a batch (deadline-style);
	// disabled it behaves like noop with merging only.
	Sort bool
}

// DefaultElevatorConfig resembles a 2.6-era deadline scheduler: 128 KB
// merges, short plug, sorted dispatch.
func DefaultElevatorConfig() ElevatorConfig {
	return ElevatorConfig{
		PlugDelay:     200 * simclock.Microsecond,
		MaxMergeBytes: 128 << 10,
		Sort:          true,
	}
}

type elevReq struct {
	write  bool
	lba    uint64
	blocks uint32
	done   []func(*vscsi.Request)
}

// NewElevator wraps a virtual disk with a guest I/O scheduler.
func NewElevator(eng *simclock.Engine, disk *vscsi.Disk, cfg ElevatorConfig) *Elevator {
	if cfg.MaxMergeBytes < 512 {
		cfg.MaxMergeBytes = 512
	}
	return &Elevator{eng: eng, disk: disk, cfg: cfg}
}

// Merged reports how many requests were absorbed into earlier ones;
// Dispatched how many commands reached the virtual disk.
func (e *Elevator) Merged() uint64 { return e.merged }

// Submit queues one block request. done (optional) fires when the merged
// command containing this request completes.
func (e *Elevator) Submit(write bool, lba uint64, blocks uint32, done func(*vscsi.Request)) {
	// Back-merge into a queued contiguous request of the same direction.
	maxBlocks := uint32(e.cfg.MaxMergeBytes / 512)
	for _, q := range e.queue {
		if q.write != write || q.blocks+blocks > maxBlocks {
			continue
		}
		if q.lba+uint64(q.blocks) == lba {
			q.blocks += blocks
			if done != nil {
				q.done = append(q.done, done)
			}
			e.merged++
			return
		}
		// Front merge.
		if lba+uint64(blocks) == q.lba {
			q.lba = lba
			q.blocks += blocks
			if done != nil {
				q.done = append(q.done, done)
			}
			e.merged++
			return
		}
	}
	r := &elevReq{write: write, lba: lba, blocks: blocks}
	if done != nil {
		r.done = append(r.done, done)
	}
	e.queue = append(e.queue, r)
	if !e.plugged {
		e.plugged = true
		e.eng.After(e.cfg.PlugDelay, func(simclock.Time) { e.unplug() })
	}
}

// Flush dispatches everything queued immediately (fsync barrier).
func (e *Elevator) Flush() { e.unplug() }

func (e *Elevator) unplug() {
	e.plugged = false
	batch := e.queue
	e.queue = nil
	if len(batch) == 0 {
		return
	}
	if e.cfg.Sort {
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].lba < batch[j].lba })
	}
	for _, r := range batch {
		cmd := scsi.Read(r.lba, r.blocks)
		if r.write {
			cmd = scsi.Write(r.lba, r.blocks)
		}
		dones := r.done
		e.dispatched++
		if _, err := e.disk.Issue(cmd, func(req *vscsi.Request) {
			for _, d := range dones {
				d(req)
			}
		}); err != nil {
			// Disk closed: report a synthetic failed request so callers
			// are not left hanging.
			failed := &vscsi.Request{Cmd: cmd, Status: scsi.StatusCheckCondition,
				Sense: scsi.SenseInvalidFieldCDB}
			for _, d := range dones {
				d(failed)
			}
		}
	}
}
