package workload

import (
	"fmt"

	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/trace"
	"vscsistats/internal/vscsi"
)

// TraceReplay drives a virtual disk with a captured command stream: each
// record is re-issued at its captured relative instant (equal-instant runs
// go through the batched issue path, so outstanding-I/O histograms see the
// captured burst shape), while completion timing comes from the simulated
// backend underneath. That separation is the point: a public trace
// (MSR Cambridge, Alibaba — see trace.Open) supplies the arrival process
// and access pattern of a real tenant, the simulator supplies the
// environment, and the paper's environment-independent metrics (§3.7)
// should then classify the replayed tenant like the original.
//
// Like every generator here, TraceReplay is a deterministic state machine:
// the same records produce the same command stream and instants.

// TraceSpec describes a trace-driven workload against a raw virtual disk.
type TraceSpec struct {
	// Name labels the workload, e.g. the trace file's basename.
	Name string
	// Records is the command stream, issue-ordered (the capture order of a
	// single-disk trace; use trace.Filter/OnlyDisk to cut one substream
	// from a multi-disk capture, or trace.NewMergeSource to interleave).
	Records []trace.Record
	// Loop restarts the stream when it runs out, separated by the trace's
	// mean inter-arrival gap, so a short capture can drive a long
	// simulation.
	Loop bool
	// Speed scales the captured pacing (2 = twice as fast; default 1).
	Speed float64
	// MaxOutstanding caps commands in flight (default 64); arrivals over
	// the cap are skipped and counted, as with Paced.
	MaxOutstanding int
}

// TraceReplay replays a TraceSpec against a raw virtual disk.
type TraceReplay struct {
	spec TraceSpec
	eng  *simclock.Engine
	disk *vscsi.Disk

	pos       int
	loopGap   simclock.Time
	running   bool
	stats     Stats
	throttled int64
	loops     int64

	// cmds is the burst buffer, completed the one completion callback and
	// arrived the one arrival event, all reused by every arrival (see
	// Paced).
	cmds      []scsi.Command
	completed func(*vscsi.Request)
	arrived   simclock.Event
}

// NewTraceReplay prepares a trace-driven generator against a raw disk.
func NewTraceReplay(eng *simclock.Engine, disk *vscsi.Disk, spec TraceSpec) *TraceReplay {
	if len(spec.Records) == 0 {
		panic("workload: TraceReplay needs at least one record")
	}
	if spec.Speed <= 0 {
		spec.Speed = 1
	}
	if spec.MaxOutstanding <= 0 {
		spec.MaxOutstanding = 64
	}
	tr := &TraceReplay{spec: spec, eng: eng, disk: disk}
	tr.completed, tr.arrived = tr.complete, tr.arrive
	// The restart gap when looping: the trace's mean inter-arrival time.
	span := spec.Records[len(spec.Records)-1].IssueMicros - spec.Records[0].IssueMicros
	if n := int64(len(spec.Records) - 1); n > 0 && span > 0 {
		tr.loopGap = tr.scaleGap(span / n)
	} else {
		tr.loopGap = simclock.Millisecond
	}
	return tr
}

// Name implements Generator.
func (tr *TraceReplay) Name() string { return fmt.Sprintf("trace/%s", tr.spec.Name) }

// Start schedules the first captured arrival; Stop ceases scheduling.
func (tr *TraceReplay) Start() {
	if tr.running {
		return
	}
	tr.running = true
	tr.eng.After(1, tr.arrived)
}

// Stop implements Generator.
func (tr *TraceReplay) Stop() { tr.running = false }

// Stats implements Generator.
func (tr *TraceReplay) Stats() Stats { return tr.stats }

// Throttled reports arrivals skipped at the outstanding-I/O cap.
func (tr *TraceReplay) Throttled() int64 { return tr.throttled }

// Loops reports how many times the stream has wrapped.
func (tr *TraceReplay) Loops() int64 { return tr.loops }

func (tr *TraceReplay) scaleGap(micros int64) simclock.Time {
	gap := simclock.Time(float64(micros) / tr.spec.Speed * float64(simclock.Microsecond))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// arrive issues every record captured at this instant, then schedules the
// next captured arrival.
func (tr *TraceReplay) arrive(simclock.Time) {
	if !tr.running {
		return
	}
	recs := tr.spec.Records
	end := tr.pos + 1
	for end < len(recs) && recs[end].IssueMicros == recs[tr.pos].IssueMicros {
		end++
	}
	burst := recs[tr.pos:end]
	if tr.disk.Inflight()+len(burst) > tr.spec.MaxOutstanding {
		tr.throttled += int64(len(burst))
	} else {
		tr.issueBurst(burst)
	}

	gap := simclock.Time(0)
	if end < len(recs) {
		gap = tr.scaleGap(recs[end].IssueMicros - recs[tr.pos].IssueMicros)
		tr.pos = end
	} else if tr.spec.Loop {
		gap = tr.loopGap
		tr.pos = 0
		tr.loops++
	} else {
		tr.running = false
		return
	}
	tr.eng.After(gap, tr.arrived)
}

func (tr *TraceReplay) issueBurst(burst []trace.Record) {
	bytes := int64(0)
	if len(burst) == 1 {
		cmd := tr.mapCmd(&burst[0])
		bytes = int64(cmd.Blocks) * 512
		if _, err := tr.disk.Issue(cmd, tr.completed); err != nil {
			tr.stats.Errors++
			return
		}
	} else {
		tr.cmds = tr.cmds[:0]
		for i := range burst {
			cmd := tr.mapCmd(&burst[i])
			tr.cmds = append(tr.cmds, cmd)
			bytes += int64(cmd.Blocks) * 512
		}
		if _, err := tr.disk.IssueBatch(tr.cmds, tr.completed); err != nil {
			tr.stats.Errors += int64(len(tr.cmds))
			return
		}
	}
	tr.stats.Bytes += bytes
}

// complete accounts one finished command.
func (tr *TraceReplay) complete(r *vscsi.Request) {
	tr.stats.Ops++
	tr.stats.TotalLatency += tr.eng.Now() - r.IssueTime
	if r.Status != scsi.StatusGood {
		tr.stats.Errors++
	}
}

// mapCmd fits a captured command onto this disk's geometry: commands from
// a larger disk wrap into the capacity, preserving size and relative
// locality.
func (tr *TraceReplay) mapCmd(rec *trace.Record) scsi.Command {
	capacity := tr.disk.CapacitySectors()
	blocks := rec.Blocks
	if uint64(blocks) > capacity {
		blocks = uint32(capacity)
	}
	lba := rec.LBA
	if lba+uint64(blocks) > capacity {
		lba %= capacity - uint64(blocks) + 1
	}
	return scsi.Command{Op: rec.Op, LBA: lba, Blocks: blocks}
}
