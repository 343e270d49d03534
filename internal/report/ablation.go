package report

import (
	"fmt"

	"vscsistats/internal/core"
	"vscsistats/internal/fs"
	"vscsistats/internal/hypervisor"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// AblationWindow sweeps the windowed seek-distance look-behind N (§3.1
// defaults to 16) against a workload of k interleaved sequential streams,
// showing the design point: the windowed histogram recovers sequentiality
// exactly when N >= k, while the plain histogram never does.
func AblationWindow(streams int, opts Options) (*Result, error) {
	if streams <= 0 {
		return nil, fmt.Errorf("report: need at least one stream")
	}
	r := newResult("ablation-window",
		fmt.Sprintf("Windowed seek distance: look-behind N vs %d interleaved streams", streams))
	for _, n := range []int{1, 4, 16, 64} {
		eng := simclock.NewEngine()
		backend := vscsi.BackendFunc(func(q *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
			done(scsi.StatusGood, scsi.Sense{})
		})
		d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{
			VM: "vm", Name: "d", CapacitySectors: 1 << 40,
		})
		col := core.NewCollectorWindow("vm", "d", n)
		col.Enable()
		d.AddObserver(col)
		// Round-robin issue from `streams` far-apart sequential streams.
		cursors := make([]uint64, streams)
		for i := range cursors {
			cursors[i] = uint64(i) << 30
		}
		for i := 0; i < 5000; i++ {
			s := i % streams
			if _, err := d.Issue(scsi.Read(cursors[s], 8), nil); err != nil {
				return nil, err
			}
			cursors[s] += 8
		}
		eng.Run()
		snap := col.Snapshot()
		var seq int64
		w := snap.Histogram(core.MetricSeekWindowed, core.All)
		for i := range w.Counts {
			if l := w.BinLabel(i); l == "0" || l == "2" {
				seq += w.Counts[i]
			}
		}
		frac := 0.0
		if w.Total > 0 {
			frac = float64(seq) / float64(w.Total)
		}
		plainSeq := seqFraction2(snap, core.All)
		r.notef("N=%-3d windowed sequential fraction %.0f%% (plain histogram sees %.0f%%)",
			n, 100*frac, 100*plainSeq)
		r.CSVs[fmt.Sprintf("window_%d", n)] = w.CSV()
	}
	r.notef("the plain histogram cannot disentangle the streams at any N; the windowed histogram recovers them once N >= streams (§3.1)")
	return r, nil
}

// AblationHistogramVsTrace quantifies the core space trade-off the paper
// argues for (§3): O(m) histograms versus O(n) traces, as actual bytes for
// a given command count.
func AblationHistogramVsTrace(commands int64) *Result {
	r := newResult("ablation-space", "Histogram (O(m)) vs trace (O(n)) memory cost")
	histBytes := int64(collectorMemoryBytes())
	const traceRecordBytes = 44 // internal/trace fixed record size
	for _, n := range []int64{1e3, 1e6, 1e9} {
		r.notef("%12d commands: histograms %8d bytes (constant), trace %14d bytes",
			n, histBytes, n*traceRecordBytes)
	}
	if commands > 0 {
		r.notef("requested %d commands: trace/histogram ratio %.1fx",
			commands, float64(commands*traceRecordBytes)/float64(histBytes))
	}
	return r
}

// AblationZFSAggregation sweeps the ZFS model's vdev aggregation limit
// (64/128/256 KB) under the OLTP write stream, showing how the cap shapes
// the device-write size distribution that Figure 3(a) plots.
func AblationZFSAggregation(opts Options) (*Result, error) {
	r := newResult("ablation-zfs-agg", "ZFS aggregation limit vs device write sizes")
	for _, limit := range []int64{64 << 10, 128 << 10, 256 << 10} {
		limit := limit
		s, err := filebenchRun(opts, func(eng *simclock.Engine, vd *hypervisor.Vdisk) fs.FS {
			cfg := fs.DefaultZFSConfig()
			cfg.RecordBytes = 8 << 10 // small records so aggregation decides the I/O size
			cfg.AggregateBytes = limit
			cfg.ZILBytes = 0 // isolate the txg stream from intent-log commits
			return fs.NewZFS(eng, vd.Disk, cfg)
		})
		if err != nil {
			return nil, err
		}
		lw := s.Histogram(core.MetricIOLength, core.Writes)
		var atLimit int64
		for i := range lw.Counts {
			_, hi := lw.BinRange(i)
			if hi == limit {
				atLimit = lw.Counts[i]
			}
		}
		frac := 0.0
		if lw.Total > 0 {
			frac = float64(atLimit) / float64(lw.Total)
		}
		r.notef("aggregate<=%-4dKB: mean device write %8.0f bytes, %3.0f%% of writes in the cap-bounded bin",
			limit>>10, lw.Mean(), 100*frac)
		r.CSVs[fmt.Sprintf("agg_%dk", limit>>10)] = lw.CSV()
	}
	r.notef("larger caps coalesce more of the txg's contiguous COW run into each command — the knob behind the 80-128 KB cluster the paper observed")
	return r, nil
}
