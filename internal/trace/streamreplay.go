package trace

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// This file is the streaming replacement for the materialize-and-sort core
// of Replay. The paper's closing claim — "whether calculating online or
// replaying a trace, the resulting CPU cost is O(n)" — does not survive a
// global sort.SliceStable over 2·n events, and the O(n) transient memory
// does not survive a multi-gigabyte trace at all. The engine here replays
// from any RecordSource in one pass with O(workers·batch + mergeWindow)
// resident memory:
//
//   - ReplayParallel demultiplexes the stream into per-(VM, disk)
//     substreams, fans them out across a worker pool (a disk sticks to one
//     worker, so per-disk issue order — the only order the collector's
//     stream-correlated metrics depend on — is preserved without locks),
//     and drives each disk's own collector through the batched
//     OnIssueBatch fast path. Per-VM and cluster views merge bin-exactly
//     via core.Aggregate, exactly like the live registry rollups.
//   - MergeSource, in front of it when MergeWindow > 0, restores issue
//     order in a capture that interleaves substreams out of order — a
//     k-way merge with bounded lookahead, O(n log k), in place of
//     materializing and sorting the trace.
//
// Replay order and bin-exactness: the collector's issue-side metrics
// depend only on the relative order of OnIssue calls within one collector,
// and OnComplete shares no state with OnIssue (latency is carried by the
// record, errors are a counter). So completions may be delivered with
// their record's batch rather than interleaved by completion timestamp,
// and per-disk collectors may progress independently: the histograms are
// bit-identical to the legacy event-sorted replay. The property tests in
// streamreplay_test.go pin the equality across every metric, class and
// worker count.

// The replay engine's fixed shape. Resident replay memory is
// O(Workers · replayQueueDepth · replayBatchSize).
const (
	replayBatchSize  = 512     // records pushed per OnIssueBatch burst
	replayQueueDepth = 8       // batches buffered per worker
	progressEvery    = 1 << 18 // records between Progress calls
)

// ReplayConfig tunes the streaming replay engine. The zero value takes
// every documented default.
type ReplayConfig struct {
	// Workers is the fan-out of ReplayParallel (default GOMAXPROCS).
	// Substreams are assigned to workers round-robin in first-seen order,
	// so any worker count produces bit-identical histograms.
	Workers int
	// MergeWindow is the k-way issue-order merge lookahead: 0 trusts
	// per-disk capture order and does not merge, > 0 puts a MergeSource
	// with that lookahead in front of the demultiplexer.
	MergeWindow int
	// Registry, if non-nil, has each per-disk collector Registered as it
	// is created, so a live httpstats handler can scrape a replay in
	// flight.
	Registry *core.Registry
	// Progress, if non-nil, is called from the demultiplexing goroutine
	// every 2^18 records with the running count.
	Progress func(records uint64)
}

// ReplayStats summarizes one streaming replay.
type ReplayStats struct {
	// Records is the number of records consumed from the source.
	Records uint64
	// Disks is the number of distinct (VM, disk) substreams seen.
	Disks int
	// Batches is the number of OnIssueBatch bursts pushed.
	Batches uint64
	// OrderViolations counts records that arrived out of issue order
	// within their substream (or, with a merge, past the lookahead
	// window). The replay still completes; the stream-correlated
	// histograms of the affected disk may differ from a sorted replay.
	OrderViolations uint64
}

// ReplayResult is the outcome of ReplayParallel: one collector per
// (VM, disk) substream, in first-seen order.
type ReplayResult struct {
	Stats ReplayStats
	cols  []*core.Collector
}

// Collectors returns the per-disk collectors in first-seen order.
func (r *ReplayResult) Collectors() []*core.Collector { return r.cols }

// Merged returns the cluster-wide rollup of every replayed disk, merged
// bin-exactly via core.Aggregate (nil if the trace was empty).
func (r *ReplayResult) Merged() *core.Snapshot {
	snaps := make([]*core.Snapshot, 0, len(r.cols))
	for _, c := range r.cols {
		if s := c.Snapshot(); s != nil {
			snaps = append(snaps, s)
		}
	}
	return core.Aggregate("*", "*", snaps...)
}

// fillRequest rebuilds the vSCSI request a record describes, exactly as
// the legacy replay did.
func fillRequest(q *vscsi.Request, rec *Record) {
	q.ID = rec.Seq
	q.VM = rec.VM
	q.Disk = rec.Disk
	q.Cmd = scsi.Command{Op: rec.Op, LBA: rec.LBA, Blocks: rec.Blocks}
	q.IssueTime = simclock.Time(rec.IssueMicros) * simclock.Microsecond
	q.CompleteTime = simclock.Time(rec.CompleteMicros) * simclock.Microsecond
	q.OutstandingAtIssue = int(rec.Outstanding)
	q.Status = rec.Status
}

// reqSlab is a reusable batch of requests: records are transcribed into
// the slab, issued as one burst, then completed. The slab never escapes
// its owner, so a replay allocates requests once per worker, not once per
// record.
type reqSlab struct {
	reqs []vscsi.Request
	ptrs []*vscsi.Request
}

func newReqSlab(n int) *reqSlab {
	s := &reqSlab{reqs: make([]vscsi.Request, n), ptrs: make([]*vscsi.Request, n)}
	for i := range s.reqs {
		s.ptrs[i] = &s.reqs[i]
	}
	return s
}

// replay pushes recs through col as one burst: issues batched, then the
// matching completions.
func (s *reqSlab) replay(col *core.Collector, recs []Record) {
	if len(recs) > len(s.reqs) {
		*s = *newReqSlab(len(recs))
	}
	n := len(recs)
	for i := range recs {
		fillRequest(s.ptrs[i], &recs[i])
	}
	col.OnIssueBatch(s.ptrs[:n])
	for _, q := range s.ptrs[:n] {
		col.OnComplete(q)
	}
}

// replayBatch is one burst in flight from the demultiplexer to a worker.
type replayBatch struct {
	col  *core.Collector
	recs []Record
}

// parallelDisk is the demultiplexer's per-substream state.
type parallelDisk struct {
	col       *core.Collector
	worker    int
	batch     *replayBatch
	lastIssue int64
	haveLast  bool
}

// demuxSlots sizes the direct-mapped cache in front of the
// demultiplexer's disk map.
const demuxSlots = 256

// demuxHash picks a disk's cache slot from its names' lengths and last two
// bytes, where names that count disks differ: no pass over the whole
// names, which a map lookup pays.
func demuxHash(vm, disk string) int {
	var h uint64
	for _, s := range [2]string{vm, disk} {
		h = h<<8 | uint64(len(s))
		for i := max(len(s)-2, 0); i < len(s); i++ {
			h = h<<8 | uint64(s[i])
		}
	}
	return int(h * 0x9e3779b97f4a7c15 >> 56) // the top 8 bits: demuxSlots
}

// ReplayParallel replays a trace into one collector per (VM, disk)
// substream across a worker pool — the histograms the online service
// would have built had it watched the same commands live. Substreams are
// independent (a collector's stream-correlated state never crosses
// disks), so fan-out changes nothing but wall-clock time: any Workers
// value yields bit-identical collectors.
func ReplayParallel(src RecordSource, cfg ReplayConfig) (*ReplayResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	var merge *MergeSource
	if cfg.MergeWindow > 0 {
		merge = NewMergeSource(src, cfg.MergeWindow)
		src = merge
	}

	res := &ReplayResult{}
	// free recycles batches within this call. It is owned by the call, so
	// a pass's batches die with the pass, and sized to hold every batch
	// that can be queued or in a worker's hands at once; both ends are
	// non-blocking, so a miss allocates and an overflow is left to the
	// collector.
	free := make(chan *replayBatch, cfg.Workers*(replayQueueDepth+2))
	chans := make([]chan *replayBatch, cfg.Workers)
	batchCounts := make([]uint64, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		chans[w] = make(chan *replayBatch, replayQueueDepth)
		wg.Add(1)
		go func(w int, ch <-chan *replayBatch) {
			defer wg.Done()
			slab := newReqSlab(replayBatchSize)
			var n uint64
			for b := range ch {
				slab.replay(b.col, b.recs)
				n++
				b.recs = b.recs[:0]
				b.col = nil
				select {
				case free <- b:
				default:
				}
			}
			batchCounts[w] = n
		}(w, chans[w])
	}

	disks := make(map[diskKey]*parallelDisk)
	var cache [demuxSlots]struct {
		vm, disk string
		d        *parallelDisk
	}
	dispatch := func(d *parallelDisk) {
		chans[d.worker] <- d.batch
		d.batch = nil
	}
	var rec Record
	var srcErr error
	for {
		if err := src.Next(&rec); err != nil {
			if err != io.EOF {
				srcErr = err
			}
			break
		}
		// The names of a disk's records are one string each from every
		// shipped source, so a cache hit compares two pointers.
		slot := &cache[demuxHash(rec.VM, rec.Disk)]
		d := slot.d
		if d == nil || slot.vm != rec.VM || slot.disk != rec.Disk {
			key := diskKey{rec.VM, rec.Disk}
			if d = disks[key]; d == nil {
				col := core.NewCollector(rec.VM, rec.Disk)
				col.Enable()
				if cfg.Registry != nil {
					cfg.Registry.Register(col)
				}
				d = &parallelDisk{col: col, worker: len(res.cols) % cfg.Workers}
				disks[key] = d
				res.cols = append(res.cols, col)
			}
			slot.vm, slot.disk, slot.d = rec.VM, rec.Disk, d
		}
		if d.haveLast && rec.IssueMicros < d.lastIssue {
			res.Stats.OrderViolations++
		} else {
			d.lastIssue = rec.IssueMicros
			d.haveLast = true
		}
		if d.batch == nil {
			var b *replayBatch
			select {
			case b = <-free:
			default:
				b = &replayBatch{recs: make([]Record, 0, replayBatchSize)}
			}
			b.col = d.col
			d.batch = b
		}
		d.batch.recs = append(d.batch.recs, rec)
		if len(d.batch.recs) == replayBatchSize {
			dispatch(d)
		}
		res.Stats.Records++
		if cfg.Progress != nil && res.Stats.Records%progressEvery == 0 {
			cfg.Progress(res.Stats.Records)
		}
	}
	for _, d := range disks {
		if d.batch != nil && len(d.batch.recs) > 0 {
			dispatch(d)
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, n := range batchCounts {
		res.Stats.Batches += n
	}
	if merge != nil {
		res.Stats.OrderViolations += merge.Violations()
	}
	res.Stats.Disks = len(res.cols)
	if srcErr != nil {
		return res, fmt.Errorf("trace: replay stopped after %d records: %w", res.Stats.Records, srcErr)
	}
	return res, nil
}
