// Package fleetobs characterizes the characterizer: an end-to-end
// tracing and diagnostics layer for the fleet pipeline (agents →
// sharded aggregator → segment log → history), built out of the same
// lock-free histograms the pipeline ships for guest I/O.
//
// The design follows the paper's Table 2 discipline — instrumentation
// cheap enough to leave on in production:
//
//   - Every pipeline stage (capture, delta render, encode, push, queue
//     dwell on the agent; decode, lock wait, shard ingest, merge
//     recompute, log append, fsync, compaction, replay, history on the
//     aggregator) gets one histogram.Histogram of nanosecond latencies
//     over power-of-two bins, exported as Prometheus cumulative
//     histograms (vscsistats_fleetobs_*).
//   - The hot ingest path is sampled 1-in-N (N a power of two, default
//     64): one atomic increment decides, and unsampled operations pay
//     nothing else.
//   - Structural events (push received, resync with cause, rotation,
//     retention delete, compaction begin/commit, torn-tail truncation,
//     replay summary) and sampled stage spans go to a bounded ring under
//     a mutex, so every window read is consecutive in Seq and an event
//     costs no allocation. The ring is served as JSON and as a Chrome
//     trace-event view (hosts as processes, stages as threads).
//   - A top-K ring keeps the slowest operations seen, with an atomic
//     admission floor so fast operations skip its lock entirely.
//
// A nil *Tracker is fully inert: every method is nil-safe, so the
// pipeline can call through unconditionally and pay a single branch
// when observability is off.
package fleetobs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/histogram"
	"vscsistats/internal/ring"
	"vscsistats/internal/telemetry"
)

// Stage enumerates the pipeline stages that carry a latency histogram.
type Stage uint8

// Agent-side stages, in pipeline order, then aggregator-side stages.
const (
	// StageCapture is the registry snapshot walk on the agent.
	StageCapture Stage = iota
	// StageDeltaRender is Snapshot.Sub against the acked base.
	StageDeltaRender
	// StageEncode is rendering the batch as one wire frame.
	StageEncode
	// StagePush is the HTTP push round-trip as the agent sees it.
	StagePush
	// StageQueueDwell is capture-to-send latency: how long a batch sat
	// in the retry queue (including the first, unretried attempt).
	StageQueueDwell
	// StageDecode is wire frame decode on the aggregator.
	StageDecode
	// StageLockWait is time spent waiting for the shard's ingest lock.
	StageLockWait
	// StageIngest is the shard state apply (delta or full) once locked.
	StageIngest
	// StageMergeRecompute is a merge-cache miss recomputing a shard view.
	StageMergeRecompute
	// StageLogAppend is one frame appended to the segment log.
	StageLogAppend
	// StageFsync is one batched fsync of an active segment.
	StageFsync
	// StageCompaction is one whole-shard compaction, begin to commit.
	StageCompaction
	// StageReplay is the whole boot replay of the segment log at open.
	StageReplay
	// StageHistory is one history query over the segment log.
	StageHistory
	// StageReExport is one re-export flush: rendering merged shard
	// state and pushing it upstream as a synthetic host.
	StageReExport

	numStages
)

var stageNames = [numStages]string{
	"capture", "delta_render", "encode", "push", "queue_dwell",
	"decode", "lock_wait", "ingest", "merge_recompute", "log_append",
	"fsync", "compaction", "replay", "history", "re_export",
}

// String returns the stage's snake_case name (also its metric label).
func (s Stage) String() string {
	if s >= numStages {
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
	return stageNames[s]
}

// Scope reports which process the stage runs in: "agent" or
// "aggregator".
func (s Stage) Scope() string {
	if s <= StageQueueDwell {
		return "agent"
	}
	return "aggregator"
}

// Event kinds. KindStage marks a sampled stage latency span; the rest
// are structural pipeline events emitted unconditionally.
const (
	KindStage            = "stage"
	KindPush             = "push"
	KindResync           = "resync"
	KindRotation         = "rotation"
	KindRetention        = "retention"
	KindCompactionBegin  = "compaction_begin"
	KindCompactionCommit = "compaction_commit"
	KindTornTail         = "torn_tail"
	KindReplay           = "replay"
	KindReExport         = "re_export"
)

// eventKinds fixes the export order of per-kind counters; numKinds
// reserves one extra slot for unknown kinds.
var eventKinds = [...]string{
	KindStage, KindPush, KindResync, KindRotation, KindRetention,
	KindCompactionBegin, KindCompactionCommit, KindTornTail, KindReplay,
	KindReExport,
}

const numKinds = len(eventKinds) + 1

func kindIndex(kind string) int {
	for i, k := range eventKinds {
		if k == kind {
			return i
		}
	}
	return -1
}

// The event ring keeps the newest ringSize events; the slow ring keeps
// the slowK slowest operations.
const (
	ringSize = 1024
	slowK    = 64
)

// Config tunes a Tracker. The zero value selects the defaults.
type Config struct {
	// SampleEvery samples 1 in N stage observations on the hot path
	// (default 64, rounded up to a power of two; 1 observes everything).
	// Structural events are never sampled.
	SampleEvery int
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Tracker is the per-process observability hub: one histogram per
// stage, the event ring, the slow ring, and the sampling counter. One
// Tracker serves one process (an agent or an aggregator); both ends of
// a push each own their own.
type Tracker struct {
	hists [numStages]*histogram.Histogram
	ops   atomic.Uint64
	mask  uint64
	mu    sync.Mutex // guards ring
	ring  *ring.Ring[Event]
	slow  *slowRing
	kinds [numKinds]atomic.Int64 // +1 slot: unknown kinds
}

// StageEdges is the shared bin layout for stage latencies: power-of-two
// nanosecond bins from 256ns to 16s, the paper's irregular-bin trick
// applied to our own pipeline (sub-microsecond lock waits and
// multi-second fsyncs share one histogram without resolution loss where
// it matters).
var StageEdges = histogram.PowerOfTwoEdges(256, 1<<34)

// New builds a Tracker. The zero Config gives a 1024-event ring, a
// top-64 slow ring, and 1-in-64 sampling.
func New(cfg Config) *Tracker { return newTracker(cfg, ringSize, slowK) }

// newTracker is New with the ring bounds chosen, for tests that need
// small rings.
func newTracker(cfg Config, events, slow int) *Tracker {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 64
	}
	t := &Tracker{
		mask: uint64(ceilPow2(cfg.SampleEvery) - 1),
		ring: ring.New[Event](events),
		slow: newSlowRing(slow),
	}
	for st := Stage(0); st < numStages; st++ {
		t.hists[st] = histogram.New("fleetobs_"+st.String(), "ns", StageEdges)
	}
	return t
}

// Sample decides whether this hot-path operation should be timed: true
// for 1 in SampleEvery calls. It is one atomic add and a mask; a nil
// Tracker always returns false.
func (t *Tracker) Sample() bool {
	if t == nil {
		return false
	}
	return t.ops.Add(1)&t.mask == 0
}

// SampleAt is the stateless variant of Sample for callers that already
// hold a monotonically increasing per-source sequence: true for 1 in
// SampleEvery values of n. No shared counter, no atomic — a mask load
// and a compare — so the aggregator's memory-path ingest fence stays
// within its overhead budget even at tens of millions of batches per
// second. Use Sample when no such sequence exists (e.g. before a frame
// is decoded).
func (t *Tracker) SampleAt(n uint64) bool {
	if t == nil {
		return false
	}
	return n&t.mask == 0
}

// Hist returns the stage's histogram (nil on a nil Tracker).
func (t *Tracker) Hist(st Stage) *histogram.Histogram {
	if t == nil || st >= numStages {
		return nil
	}
	return t.hists[st]
}

// Observe records one timed stage span: a histogram sample, a
// KindStage event in the ring, and a slow-ring offer. The event's
// Stage/Scope/Kind/UnixNano/DurationNanos fields are filled here;
// callers set Host, Shard, TraceID, BatchSeq, Detail as they know
// them. No-op on a nil Tracker.
func (t *Tracker) Observe(st Stage, d time.Duration, e Event) {
	if t == nil {
		return
	}
	t.hists[st].Insert(int64(d))
	e.Kind = KindStage
	e.Scope = st.Scope()
	e.Stage = st.String()
	e.DurationNanos = int64(d)
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	t.emit(e)
	t.slow.offer(e)
}

// ObserveSince is Observe with the duration measured from start.
func (t *Tracker) ObserveSince(st Stage, start time.Time, e Event) time.Duration {
	d := time.Since(start)
	t.Observe(st, d, e)
	return d
}

// Emit records a structural (non-stage) event: kind, cause and
// whatever context the caller filled in. Never sampled. No-op on a nil
// Tracker.
func (t *Tracker) Emit(e Event) {
	if t == nil {
		return
	}
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	t.emit(e)
	if e.DurationNanos > 0 && e.Kind != KindStage {
		// Durable structural events (compaction commit, replay) compete
		// for the slow ring too — a 2s compaction should surface next to
		// a 2s fsync.
		t.slow.offer(e)
	}
}

func (t *Tracker) emit(e Event) {
	if i := kindIndex(e.Kind); i >= 0 {
		t.kinds[i].Add(1)
	} else {
		t.kinds[len(eventKinds)].Add(1)
	}
	t.mu.Lock()
	e.Seq = t.ring.Total() + 1
	t.ring.Push(e)
	t.mu.Unlock()
}

// Events returns up to limit most-recent ring events, oldest first
// (limit <= 0 means the whole ring). Nil Tracker returns nil.
func (t *Tracker) Events(limit int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Last(limit)
}

// EventsTotal returns how many events have ever been emitted (ring
// overwrites included).
func (t *Tracker) EventsTotal() int64 {
	if t == nil {
		return 0
	}
	var total int64
	for i := range t.kinds {
		total += t.kinds[i].Load()
	}
	return total
}

// Slowest returns up to limit retained operations at least threshold
// long, slowest first (limit <= 0 means all retained).
func (t *Tracker) Slowest(threshold time.Duration, limit int) []Event {
	if t == nil {
		return nil
	}
	return t.slow.slowest(threshold, limit)
}

// StageSnapshot pairs a stage with its histogram snapshot.
type StageSnapshot struct {
	Stage Stage
	Hist  *histogram.Snapshot
}

// Stages snapshots every stage histogram, in Stage order.
func (t *Tracker) Stages() []StageSnapshot {
	if t == nil {
		return nil
	}
	out := make([]StageSnapshot, 0, numStages)
	for st := Stage(0); st < numStages; st++ {
		out = append(out, StageSnapshot{Stage: st, Hist: t.hists[st].Snapshot()})
	}
	return out
}

// WriteMetrics implements telemetry.Source: the vscsistats_fleetobs_*
// series — one cumulative histogram per pipeline stage (labelled
// scope/stage) and per-kind event counters in fixed order (unknown kinds
// aggregate under "other"). A nil Tracker writes nothing.
func (t *Tracker) WriteMetrics(w *telemetry.Writer) {
	if t == nil {
		return
	}
	const stages, events = "vscsistats_fleetobs_stage_duration_nanoseconds", "vscsistats_fleetobs_events_total"
	w.Family(stages, "histogram", "Fleet pipeline stage latency (sampled on hot paths), by scope and stage.")
	for _, st := range t.Stages() {
		w.Histogram(stages, telemetry.Labels("scope", st.Stage.Scope(), "stage", st.Stage.String()), st.Hist)
	}
	w.Family(events, "counter", "Fleet pipeline events recorded, by kind (ring overwrites included).")
	for i, k := range append(eventKinds[:], "other") {
		w.Sample(events, telemetry.Labels("kind", k), float64(t.kinds[i].Load()))
	}
}
