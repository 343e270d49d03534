package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"vscsistats/internal/analysis"
	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
)

// ErrResyncRequired reports a delta batch the aggregator cannot apply: the
// host is unknown (aggregator restart), the delta's base sequence does not
// match the stored sequence (a dropped batch opened a gap), or the delta
// names a disk with no base state. The HTTP surface maps it to 409; an
// agent that sees it falls back to a full-state push, which always
// succeeds and re-establishes the chain.
var ErrResyncRequired = errors.New("fleet: resync required")

// AggregatorConfig tunes a fleet aggregator. Zero values take the
// documented defaults.
type AggregatorConfig struct {
	// StaleAfter is the liveness horizon: a host whose newest batch is
	// older than this drops out of the merged views and is reported stale
	// (default 10s; set it to a small multiple of the agents' push
	// interval).
	StaleAfter time.Duration
	// Shards splits the host space into independent slices by consistent
	// host-name hash (default 16, clamped to [1, 4096]). Each shard has
	// its own lock, host map and merge cache, so ingest scales across
	// cores and a scrape re-merges only the shards that changed.
	Shards int

	// DataDir, when set, enables the segment log: every state-changing
	// batch is appended to per-shard segment files under this directory,
	// and OpenAggregator replays them on boot so a restart recovers the
	// fleet without waiting for agents to resync. Empty (the default)
	// keeps the aggregator memory-only.
	DataDir string
	// Retention drops sealed log segments whose newest frame is older
	// than this, swept at each segment rotation (default 0: keep
	// everything). The unit of forgetting is a whole segment, so history
	// reaches back at least Retention and at most Retention plus one
	// segment's span.
	Retention time.Duration
	// SyncInterval batches log fsyncs: an append syncs only when this
	// much time passed since the last sync (default 100ms; negative
	// syncs every append). Process death loses nothing either way —
	// written bytes survive in the page cache — the interval only bounds
	// the window a power failure can take.
	SyncInterval time.Duration
	// SegmentBytes rotates the active log segment once it reaches this
	// size (default 4 MiB).
	SegmentBytes int64
	// CompactSegments rewrites a shard's log chain as one segment of
	// full frames once its sealed-segment count reaches this (default 8;
	// negative disables compaction).
	CompactSegments int

	// Obs, when set, receives per-stage latency samples (decode, lock
	// wait, shard ingest, merge recompute, log append, fsync, compaction,
	// replay, history) and structural pipeline events (pushes, resyncs
	// with cause, rotations, retention drops, compaction begin/commit,
	// torn-tail truncations, the replay summary). Hot ingest-path timing
	// is sampled 1-in-N per the tracker's config; events are not. Nil
	// disables aggregator-side observability.
	Obs *fleetobs.Tracker
}

func (c *AggregatorConfig) withDefaults() AggregatorConfig {
	out := *c
	if out.StaleAfter <= 0 {
		out.StaleAfter = 10 * time.Second
	}
	if out.Shards <= 0 {
		out.Shards = 16
	}
	out.Shards = min(out.Shards, 4096)
	return out
}

// hostState is the aggregator's record of one host: its protocol chain
// (sequence, boot incarnation, stored snapshots) plus what the shard keeps
// around it.
type hostState struct {
	chainPos
	host         string
	source       string // "push" or "log"
	sentUnixNano int64
	lastSeen     time.Time
	batches      int64
	// level and leaves are the sender's federation metadata: its height
	// in the tree and how many leaf hosts its state folds together.
	level  int
	leaves int
}

// Aggregator accepts pushed batches (full or delta), tracks per-host
// liveness, and merges per-host snapshots into per-VM and cluster-wide
// histograms. Hosts are sharded by consistent name hash into independent
// slices, merged two-level: each
// shard folds its own hosts (memoized until they change), then the shard
// merges fold at the edge — bin-exactness makes the second level free. All
// methods are safe for concurrent use: any number of HTTP goroutines can
// ingest while others read merged views.
type Aggregator struct {
	cfg AggregatorConfig
	// now is the wall clock, injectable for deterministic staleness tests.
	now func() time.Time

	shards []*shard

	// log is the crash-safe segment log, nil when DataDir is unset. iomu
	// serializes {shard ingest, log append} per shard so the log's frame
	// order matches the order states were applied — without it two
	// concurrent batches for one host could apply in one order and land
	// on disk in the other, and a replay of that log would diverge.
	log  *segmentLog
	iomu []sync.Mutex

	// catalog is the swappable §7 reference catalog (see catalog.go).
	catalog atomic.Pointer[analysis.Catalog]

	rejected         atomic.Int64
	rejectedChecksum atomic.Int64 // of rejected, the frames that failed their trailer
	recvBytes        atomic.Int64
	// layoutMismatch counts delta frames refused because their bin layout
	// was not this binary's at decode (or the batch failed Validate) — the
	// one resync cause detected at the aggregator rather than in the shard.
	layoutMismatch atomic.Int64
}

// NewAggregator builds an empty aggregator.
func NewAggregator(cfg AggregatorConfig) *Aggregator {
	g := &Aggregator{
		cfg: cfg.withDefaults(),
		now: time.Now,
	}
	g.shards = make([]*shard, g.cfg.Shards)
	for i := range g.shards {
		g.shards[i] = newShard(i, g.cfg.Obs)
	}
	g.iomu = make([]sync.Mutex, g.cfg.Shards)
	return g
}

// ReplayStats summarizes one boot replay of the segment log.
type ReplayStats struct {
	// Frames is how many whole frames the log held; Skipped counts the
	// ones that decoded but could not apply (deltas whose base fell to
	// retention or compaction, or frames from an incompatible histogram
	// layout) — lost information, never wrong information.
	Frames  int64 `json:"frames"`
	Skipped int64 `json:"skipped"`
	// TornTails counts segment chains whose last frame was cut short by a
	// crash mid-write and truncated back to the last whole frame.
	TornTails int `json:"torn_tails"`
	// Hosts is how many hosts the replay recovered.
	Hosts int `json:"hosts"`
	// Duration is the wall time the replay took.
	Duration time.Duration `json:"duration_ns"`
}

// OpenAggregator builds an aggregator backed by the segment log under
// cfg.DataDir: existing segments are replayed through shard.ingest, the
// call live ingest makes, a torn tail frame on any chain's newest segment
// is truncated away, and every subsequent state-changing batch is appended.
// Replayed hosts keep their recorded send time as their liveness time, so
// staleness after a restart means what it always means. With an empty
// DataDir this is exactly NewAggregator. Any other decode failure in the
// log — wrong magic, a payload that contradicts its own encoding, a frame
// that fails Validate, a frame of a retired generation — refuses to open
// rather than serve numbers the log contradicts.
func OpenAggregator(cfg AggregatorConfig) (*Aggregator, ReplayStats, error) {
	g := NewAggregator(cfg)
	if g.cfg.DataDir == "" {
		return g, ReplayStats{}, nil
	}
	l, err := openSegmentLog(logConfig{
		dir:             g.cfg.DataDir,
		segmentBytes:    g.cfg.SegmentBytes,
		syncInterval:    g.cfg.SyncInterval,
		retention:       g.cfg.Retention,
		compactSegments: g.cfg.CompactSegments,
		obs:             g.cfg.Obs,
	}, g.cfg.Shards)
	if err != nil {
		return nil, ReplayStats{}, err
	}
	start := time.Now()
	var st ReplayStats
	var moved atomic.Bool
	// Label the replay for pprof so boot-recovery CPU attributes to the
	// pipeline stage, not to an anonymous OpenAggregator frame.
	pprof.Do(context.Background(), pprof.Labels("stage", "replay"), func(context.Context) {
		st, err = l.replay(func(dirIdx int, f *frame) (bool, error) {
			if dirIdx != g.ShardFor(f.Host) {
				moved.Store(true)
			}
			_, ierr := g.shardOf(f.Host).ingest(f, "log", time.Unix(0, f.SentUnixNano), true)
			if errors.Is(ierr, ErrResyncRequired) {
				return true, nil
			}
			return false, ierr
		})
	})
	if err != nil {
		return nil, ReplayStats{}, err
	}
	g.log = l
	if moved.Load() || len(l.orphans) > 0 {
		// The shard count changed since the log was written. Hosts
		// replayed fine (routing is by host hash, never by dir), but a
		// moved host's base must go home before its next deltas land
		// there: rewrite every shard's chain, then drop the orphans.
		if err := g.CompactLog(); err != nil {
			return nil, ReplayStats{}, err
		}
		l.removeOrphans()
	}
	st.Hosts = len(g.Hosts())
	st.Duration = time.Since(start)
	g.cfg.Obs.Observe(fleetobs.StageReplay, st.Duration, fleetobs.Event{Shard: -1})
	g.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindReplay, Scope: "aggregator", Shard: -1,
		DurationNanos: int64(st.Duration),
		Detail: fmt.Sprintf("frames=%d skipped=%d torn_tails=%d hosts=%d",
			st.Frames, st.Skipped, st.TornTails, st.Hosts),
	})
	return g, st, nil
}

// NumShards returns the aggregator's shard count.
func (g *Aggregator) NumShards() int { return len(g.shards) }

// ShardFor returns the shard index the host routes to — FNV-1a of the
// name modulo the shard count, so any party knowing the count computes
// the same answer.
func (g *Aggregator) ShardFor(host string) int {
	return int(shardHash(host) % uint32(len(g.shards)))
}

func (g *Aggregator) shardOf(host string) *shard {
	return g.shards[g.ShardFor(host)]
}

// Ingest encodes a batch once (a delta DecodeBatch read keeps its Kept
// marks, so it encodes to the frame read) and takes a pushed frame's path:
// offered to the host's chain (chainPos.apply), it becomes the host's
// newest state, refreshes liveness only (a late retry never rolls a host
// backwards), or, a delta not built on exactly what is stored, returns
// ErrResyncRequired. With a segment log open, every state-changing batch is
// appended in apply order; a failed write is counted and absorbed, as the
// batch is already applied and an aggregator with a full disk keeps serving.
func (g *Aggregator) Ingest(b *Batch, source string) error {
	raw, err := EncodeBatchBytes(b) // refuses a null snapshot as Validate does
	if err != nil {
		return g.refuse(b, err)
	}
	// Sampling is deterministic per host, 1 in SampleEvery of its sequence
	// numbers: stateless, so an unsampled batch costs the tracker no atomic.
	_, err = g.receive(context.Background(), bytes.NewReader(raw), source, g.cfg.Obs.SampleAt(b.Seq))
	return err
}

// ingest validates a frame, offers it to its host's chain and logs the
// bytes of a frame that changed it.
func (g *Aggregator) ingest(f *frame, source string, sampled bool) error {
	if err := f.Validate(); err != nil {
		if _, derr := decodePayload(f.payload, f.count, f.Delta, nil, false); derr != nil {
			return derr // a malformed payload is a bad frame first
		}
		return g.refuse(f.Batch, err)
	}
	idx := g.ShardFor(f.Host)
	start := stageStart(sampled)
	if g.log != nil {
		g.iomu[idx].Lock()
		g.observeStage(fleetobs.StageLockWait, start, f.Batch, idx)
		start = stageStart(sampled)
	}
	applied, err := g.shards[idx].ingest(f, source, g.now(), false)
	g.observeStage(fleetobs.StageIngest, start, f.Batch, idx)
	var rotated bool
	if g.log != nil {
		if err == nil && applied {
			start = stageStart(sampled)
			rotated, _ = g.log.append(idx, f.raw, f.SentUnixNano, g.now()) // a failure is counted by the log
			g.observeStage(fleetobs.StageLogAppend, start, f.Batch, idx)
		}
		g.iomu[idx].Unlock()
	}
	if rotated && g.log.needsCompaction(idx) {
		// Best-effort: a failed compaction leaves the chain long but
		// whole; the next rotation retries.
		pprof.Do(context.Background(),
			pprof.Labels("stage", "compaction", "shard", strconv.Itoa(idx)),
			func(context.Context) {
				g.log.compact(idx, g.shards[idx].fullBatches)
			})
	}
	g.noteResyncEvent(f.Batch, err)
	return err
}

// refuse turns away a batch that failed Validate, or the header of a
// frame whose bin layout is not ours. On a delta that is version skew
// between sender and receiver, not a malformed request: asking for a
// full-state resync gives the sender a road forward (and the full push's
// failure, if any, stays 400).
func (g *Aggregator) refuse(b *Batch, err error) error {
	if !b.Delta {
		g.rejected.Add(1)
		return err
	}
	g.layoutMismatch.Add(1)
	rerr := resyncErr(ResyncLayoutMismatch, "%v", err)
	g.noteResyncEvent(b, rerr)
	return rerr
}

// stageStart reads the clock for a sampled frame only; an unsampled one
// gets the zero time, which observeStage ignores.
func stageStart(sampled bool) time.Time {
	if !sampled {
		return time.Time{}
	}
	return time.Now()
}

// observeStage records one stage span of a sampled frame, begun at
// stageStart and carrying the batch's trace identity.
func (g *Aggregator) observeStage(st fleetobs.Stage, start time.Time, b *Batch, shard int) {
	if start.IsZero() {
		return
	}
	g.cfg.Obs.Observe(st, time.Since(start), fleetobs.Event{
		Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq, Shard: shard,
	})
}

// noteResyncEvent emits a KindResync event with its typed cause when
// err is a resync refusal (no-op otherwise). Resyncs are structural —
// a storm of them is the thing this layer exists to explain — so they
// are never sampled.
func (g *Aggregator) noteResyncEvent(b *Batch, err error) {
	if err == nil || !errors.Is(err, ErrResyncRequired) {
		return
	}
	g.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindResync, Scope: "aggregator",
		Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq,
		Shard: g.ShardFor(b.Host), Cause: string(resyncCauseOf(err)),
	})
}

// Close syncs and closes the segment log's open files; a no-op for a
// memory-only aggregator. The aggregator itself stays usable — only
// further appends would reopen files — but callers should treat Close as
// the end of the aggregator's life.
func (g *Aggregator) Close() error {
	if g.log == nil {
		return nil
	}
	return g.log.close()
}

// CompactLog rewrites every shard's log chain as one segment of full
// frames, one per host — the operation rotation triggers automatically
// once a chain exceeds CompactSegments, exposed for tests and operational
// forcing. No-op without a log.
func (g *Aggregator) CompactLog() error {
	if g.log == nil {
		return nil
	}
	var first error
	for i := range g.shards {
		if err := g.log.compact(i, g.shards[i].fullBatches); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// maxFrameLen bounds one frame on any input: head, header, payload.
const maxFrameLen = 16 + maxHeaderLen + maxPayloadLen

// receive is the read → ingest chain behind every frame, pushed or handed
// to Ingest. sampled is the caller's one decision to time every stage of
// the trip or none, so an unsampled frame pays nothing beyond it.
func (g *Aggregator) receive(ctx context.Context, r io.Reader, source string, sampled bool) (*frame, error) {
	start := stageStart(sampled)
	f, err := readFrame(r, nil) // a fresh buffer: the log append keeps raw
	if err == nil && !f.Delta {
		f.Snapshots, err = decodePayload(f.payload, f.count, false, nil, false) // before the shard lock; a delta waits for its base
	}
	if errors.As(err, new(*UnknownLayoutError)) {
		return nil, g.refuse(f.Batch, err) // the whole frame came with the error
	}
	if err == nil {
		idx := g.ShardFor(f.Host)
		g.observeStage(fleetobs.StageDecode, start, f.Batch, idx)
		// Attribute ingest CPU to the pipeline: pprof samples taken inside
		// carry stage/host/shard labels via Options.Pprof for free.
		pprof.Do(ctx,
			pprof.Labels("stage", "ingest", "host", f.Host, "shard", strconv.Itoa(idx)),
			func(context.Context) {
				err = g.ingest(f, source, sampled)
			})
	}
	if errors.Is(err, ErrBadFrame) || err == io.EOF { // refuse counts the rest
		g.rejected.Add(1)
		if errors.Is(err, ErrChecksum) {
			g.rejectedChecksum.Add(1)
		}
	}
	return f, err
}

// HostStatus is one host's liveness record.
type HostStatus struct {
	Host string `json:"host"`
	// Source is how the newest batch arrived: "push", or "log" for state
	// recovered by boot replay that no sender has refreshed yet.
	Source string `json:"source"`
	// Seq is the newest batch sequence; Batches counts everything
	// ingested, retries included.
	Seq     uint64 `json:"seq"`
	Batches int64  `json:"batches"`
	// Snapshots is the number of virtual disks in the newest batch.
	Snapshots int `json:"snapshots"`
	// LastSeenUnixNano and AgeSeconds locate the newest batch in time;
	// Stale means the age exceeded the liveness horizon and the host is
	// excluded from merged views.
	LastSeenUnixNano int64   `json:"last_seen_unix_nano"`
	AgeSeconds       float64 `json:"age_seconds"`
	Stale            bool    `json:"stale"`
	// Level is the sender's height in the federation tree (0 = leaf
	// agent, 1 = a region re-exporting agents, and so on); Leaves is how
	// many leaf hosts the entry folds together (1 for a leaf agent).
	Level  int `json:"level"`
	Leaves int `json:"leaves"`
}

// Hosts lists every known host sorted by name.
func (g *Aggregator) Hosts() []HostStatus {
	now := g.now()
	var out []HostStatus
	for _, sh := range g.shards {
		out = sh.statuses(now, g.cfg.StaleAfter, out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// ClusterSnapshot merges every fresh host's disks into one cluster-wide
// view (nil when no fresh host has reported): each shard's memoized merge,
// folded once more at the edge. Bin-exact layouts make the two-level merge
// equal the flat one.
func (g *Aggregator) ClusterSnapshot(includeStale bool) *core.Snapshot {
	now := g.now()
	var parts []*core.Snapshot
	for _, sh := range g.shards {
		if c := sh.clusterMerge(now, g.cfg.StaleAfter, includeStale); c != nil {
			parts = append(parts, c)
		}
	}
	return core.Aggregate("cluster", "*", parts...)
}

// VMSnapshots merges each VM's disks across all fresh hosts, sorted by VM
// name — the federated version of Registry.VMSnapshot. Shard-level per-VM
// merges (memoized) combine across shards for VMs whose hosts span them.
func (g *Aggregator) VMSnapshots(includeStale bool) []*core.Snapshot {
	now := g.now()
	var all []*core.Snapshot
	for _, sh := range g.shards {
		all = append(all, sh.vmMerges(now, g.cfg.StaleAfter, includeStale)...)
	}
	return mergeByVM(all)
}

// AggregatorStats is a point-in-time copy of the aggregator's counters.
type AggregatorStats struct {
	// Hosts and StaleHosts count known and stale hosts; Batches counts
	// ingested batches, Rejected the batches refused at decode or
	// validation (RejectedChecksum: of them, those failing their CRC-32C),
	// RecvBytes the wire bytes of the pushed frames that were ingested.
	Hosts, StaleHosts int
	Batches           int64
	Rejected          int64
	RejectedChecksum  int64
	RecvBytes         int64
	// DeltasApplied counts delta batches folded onto stored state,
	// Duplicates the redelivered deltas ignored idempotently, and Resyncs
	// the deltas refused with ErrResyncRequired.
	DeltasApplied int64
	Duplicates    int64
	Resyncs       int64
	// Per-cause resync splits. The first three are detected in the
	// shards and sum (with replay-time refusals included) into shard
	// Resyncs; LayoutMismatch is detected at aggregator decode and
	// validation and adds on top, so Resyncs here is the true total across
	// all causes.
	ResyncSeqGap         int64
	ResyncUnknownHost    int64
	ResyncUnknownDisk    int64
	ResyncLayoutMismatch int64
	ResyncBootChanged    int64
	// MergeCacheHits and MergeCacheMisses count shard-level merge
	// memoization outcomes across all shards.
	MergeCacheHits   int64
	MergeCacheMisses int64
}

// Stats returns the aggregator's counters.
func (g *Aggregator) Stats() AggregatorStats { return g.statsOf(g.Hosts()) }

func (g *Aggregator) statsOf(hosts []HostStatus) AggregatorStats {
	var stale int
	for _, h := range hosts {
		if h.Stale {
			stale++
		}
	}
	st := AggregatorStats{
		Hosts:            len(hosts),
		StaleHosts:       stale,
		Rejected:         g.rejected.Load(),
		RejectedChecksum: g.rejectedChecksum.Load(),
		RecvBytes:        g.recvBytes.Load(),
	}
	for _, sh := range g.shards {
		st.Batches += sh.batches.Load()
		st.DeltasApplied += sh.deltasApplied.Load()
		st.Duplicates += sh.duplicates.Load()
		st.Resyncs += sh.resyncs.Load()
		st.MergeCacheHits += sh.cacheHits.Load()
		st.MergeCacheMisses += sh.cacheMisses.Load()
		st.ResyncSeqGap += sh.resyncCause[causeIndex(ResyncSeqGap)].Load()
		st.ResyncUnknownHost += sh.resyncCause[causeIndex(ResyncUnknownHost)].Load()
		st.ResyncUnknownDisk += sh.resyncCause[causeIndex(ResyncUnknownDisk)].Load()
		st.ResyncBootChanged += sh.resyncCause[causeIndex(ResyncBootChanged)].Load()
	}
	st.ResyncLayoutMismatch = g.layoutMismatch.Load()
	st.Resyncs += st.ResyncLayoutMismatch
	return st
}

// ShardStatus is one shard's slice of the aggregator, served by
// GET /fleet/shards.
type ShardStatus struct {
	Shard      int `json:"shard"`
	Hosts      int `json:"hosts"`
	StaleHosts int `json:"stale_hosts"`
	// Batches counts everything the shard ingested; DeltasApplied and
	// Resyncs expose the delta protocol's health per shard.
	Batches       int64 `json:"batches"`
	DeltasApplied int64 `json:"deltas_applied"`
	Duplicates    int64 `json:"duplicates"`
	Resyncs       int64 `json:"resyncs"`
	// MergeCacheHits/Misses show how often scrapes reused the shard's
	// memoized merge.
	MergeCacheHits   int64 `json:"merge_cache_hits"`
	MergeCacheMisses int64 `json:"merge_cache_misses"`
}

// Shards returns per-shard statistics, indexed by shard.
func (g *Aggregator) Shards() []ShardStatus {
	now := g.now()
	out := make([]ShardStatus, len(g.shards))
	for i, sh := range g.shards {
		var hosts, stale int
		sh.mu.RLock()
		hosts = len(sh.hosts)
		for _, st := range sh.hosts {
			if now.Sub(st.lastSeen) > g.cfg.StaleAfter {
				stale++
			}
		}
		sh.mu.RUnlock()
		out[i] = ShardStatus{
			Shard:            i,
			Hosts:            hosts,
			StaleHosts:       stale,
			Batches:          sh.batches.Load(),
			DeltasApplied:    sh.deltasApplied.Load(),
			Duplicates:       sh.duplicates.Load(),
			Resyncs:          sh.resyncs.Load(),
			MergeCacheHits:   sh.cacheHits.Load(),
			MergeCacheMisses: sh.cacheMisses.Load(),
		}
	}
	return out
}

// LogStats is a point-in-time view of the segment log, served by
// GET /fleet/log and exported as the vscsistats_fleet_log_* series.
type LogStats struct {
	// Enabled is false for a memory-only aggregator (every other field
	// is then zero).
	Enabled bool `json:"enabled"`
	// Segments and Bytes size the live log: every sealed segment plus
	// each shard's non-empty active one.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Appends counts frames written since open, AppendBytes their size,
	// and AppendErrors the writes absorbed after an encode or I/O
	// failure (those frames exist in memory only).
	Appends      int64 `json:"appends"`
	AppendBytes  int64 `json:"append_bytes"`
	AppendErrors int64 `json:"append_errors"`
	// Fsyncs, Rotations and Compactions count the log's maintenance
	// work; SegmentsRetired the sealed segments dropped by retention.
	Fsyncs          int64 `json:"fsyncs"`
	Rotations       int64 `json:"rotations"`
	Compactions     int64 `json:"compactions"`
	SegmentsRetired int64 `json:"segments_retired"`
	// FramesReplayed and TornTails describe the boot replay: frames
	// recovered and crash-torn tails truncated away.
	FramesReplayed int64 `json:"frames_replayed"`
	TornTails      int64 `json:"torn_tails"`
	// HistoryDropped sums HistoryResult.Dropped over queries.
	HistoryDropped int64 `json:"history_dropped"`
}

// LogStats returns the segment log's counters; Enabled is false (and all
// else zero) for a memory-only aggregator.
func (g *Aggregator) LogStats() LogStats {
	if g.log == nil {
		return LogStats{}
	}
	segs, bytes := g.log.segmentCounts()
	return LogStats{
		Enabled:         true,
		Segments:        segs,
		Bytes:           bytes,
		Appends:         g.log.appends.Load(),
		AppendBytes:     g.log.appendBytes.Load(),
		AppendErrors:    g.log.appendErrs.Load(),
		Fsyncs:          g.log.fsyncs.Load(),
		Rotations:       g.log.rotations.Load(),
		Compactions:     g.log.compactions.Load(),
		SegmentsRetired: g.log.retired.Load(),
		FramesReplayed:  g.log.replayed.Load(),
		TornTails:       g.log.tornTails.Load(),
		HistoryDropped:  g.log.historyDropped.Load(),
	}
}

// --- HTTP surface ---

// ServeHTTP serves the aggregator's routes; mount it under /fleet/ (e.g.
// via httpstats.Options.Fleet):
//
//	GET  /fleet/hosts     per-host liveness (JSON)
//	GET  /fleet/snapshot  merged cluster snapshot; ?vm=NAME for one VM,
//	                      ?view=vms for every per-VM merge,
//	                      ?include_stale=1 to merge stale hosts too
//	GET  /fleet/shards    per-shard host counts, delta/resync counters and
//	                      merge-cache hit rates; ?host=NAME answers which
//	                      shard a host routes to
//	GET  /fleet/history   windowed merge over the retained segment log:
//	                      ?from=&to= (RFC3339 or unix seconds/nanos) bound
//	                      the window, ?vm=NAME narrows to one VM,
//	                      ?view=vms returns every per-VM merge
//	GET  /fleet/catalog   classify every fresh VM's merged view against
//	                      the installed reference catalog; ?vm=NAME for
//	                      one VM with its full ranking, ?include_stale=1
//	                      to classify stale hosts' VMs too
//	GET  /fleet/log       segment-log size and maintenance counters
//	GET  /fleet/events    the pipeline event ring as JSON (requires
//	                      AggregatorConfig.Obs); ?kind= and ?host=
//	                      filter, ?limit= bounds
//	GET  /fleet/slow      the slowest retained pipeline operations;
//	                      ?threshold=10ms filters, ?limit= bounds
//	POST /fleet/push      one wire frame from an agent (full or delta;
//	                      an unappliable delta is a 409 whose body names
//	                      the resync_cause, asking the agent to resync
//	                      with full state)
func (g *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(strings.Trim(r.URL.Path, "/"), "fleet/")
	rt, ok := aggregatorRoutes[path]
	switch {
	case !ok:
		telemetry.JSONError(w, http.StatusNotFound, "not found")
	case rt.needsObs && g.cfg.Obs == nil:
		telemetry.JSONError(w, http.StatusNotFound, "observability disabled (AggregatorConfig.Obs unset)")
	case r.Method != rt.method:
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", rt.method)
	default:
		rt.serve(g, w, r)
	}
}

// aggregatorRoute is one /fleet/ route: the one method it takes, whether
// it needs AggregatorConfig.Obs, and its handler.
type aggregatorRoute struct {
	method   string
	needsObs bool
	serve    func(*Aggregator, http.ResponseWriter, *http.Request)
}

var aggregatorRoutes = map[string]aggregatorRoute{
	"hosts":    {http.MethodGet, false, func(g *Aggregator, w http.ResponseWriter, _ *http.Request) { telemetry.WriteJSON(w, g.Hosts()) }},
	"snapshot": {http.MethodGet, false, (*Aggregator).serveSnapshot},
	"shards":   {http.MethodGet, false, (*Aggregator).serveShards},
	"history":  {http.MethodGet, false, (*Aggregator).serveHistory},
	"catalog":  {http.MethodGet, false, (*Aggregator).serveCatalog},
	"log":      {http.MethodGet, false, func(g *Aggregator, w http.ResponseWriter, _ *http.Request) { telemetry.WriteJSON(w, g.LogStats()) }},
	"events":   {http.MethodGet, true, func(g *Aggregator, w http.ResponseWriter, r *http.Request) { g.cfg.Obs.ServeEvents(w, r) }},
	"slow":     {http.MethodGet, true, func(g *Aggregator, w http.ResponseWriter, r *http.Request) { g.cfg.Obs.ServeSlow(w, r) }},
	"push":     {http.MethodPost, false, (*Aggregator).servePush},
}

func (g *Aggregator) serveShards(w http.ResponseWriter, r *http.Request) {
	if host := r.URL.Query().Get("host"); host != "" {
		telemetry.WriteJSON(w, map[string]any{
			"host": host, "shard": g.ShardFor(host), "shards": g.NumShards(),
		})
		return
	}
	telemetry.WriteJSON(w, g.Shards())
}

func (g *Aggregator) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	includeStale := r.URL.Query().Get("include_stale") == "1"
	if vm := r.URL.Query().Get("vm"); vm != "" {
		for _, s := range g.VMSnapshots(includeStale) {
			if s.VM == vm {
				telemetry.WriteJSON(w, s)
				return
			}
		}
		telemetry.JSONError(w, http.StatusNotFound, "unknown vm")
		return
	}
	if r.URL.Query().Get("view") == "vms" {
		telemetry.WriteJSON(w, g.VMSnapshots(includeStale))
		return
	}
	s := g.ClusterSnapshot(includeStale)
	if s == nil {
		telemetry.JSONError(w, http.StatusConflict, "no fresh host has reported")
		return
	}
	telemetry.WriteJSON(w, s)
}

func (g *Aggregator) servePush(w http.ResponseWriter, r *http.Request) {
	sampled := g.cfg.Obs.Sample()
	pushStart := time.Now()
	f, err := g.receive(r.Context(), http.MaxBytesReader(w, r.Body, maxFrameLen), "push", sampled)
	if err != nil {
		if errors.Is(err, ErrResyncRequired) {
			fleetResyncError(w, err)
			return
		}
		telemetry.JSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.recvBytes.Add(int64(len(f.raw)))
	if sampled {
		g.cfg.Obs.Emit(fleetobs.Event{
			Kind: fleetobs.KindPush, Scope: "aggregator",
			Host: f.Host, TraceID: f.TraceID, BatchSeq: f.Seq,
			Shard: g.ShardFor(f.Host), DurationNanos: int64(time.Since(pushStart)),
			Detail: fmt.Sprintf("delta=%t snapshots=%d", f.Delta, f.count),
		})
	}
	writePushAck(w, f.Host, f.Seq, f.count)
}

// writePushAck writes the push reply, the bytes telemetry.WriteJSON writes
// for {"host", "seq", "snapshots"}, appended without reflection.
func writePushAck(w http.ResponseWriter, host string, seq uint64, snapshots int) {
	b := make([]byte, 0, 64+len(host))
	b = appendJSONString(append(b, "{\n  \"host\": "...), host)
	b = strconv.AppendUint(append(b, ",\n  \"seq\": "...), seq, 10)
	b = strconv.AppendInt(append(b, ",\n  \"snapshots\": "...), int64(snapshots), 10)
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, "\n}\n"...))
}

// appendJSONString appends s quoted as encoding/json writes it: quotes,
// backslashes, control bytes, <, > and &, U+2028 and U+2029 escaped, and
// each byte of invalid UTF-8 as U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch k := strings.IndexRune("\b\f\n\r\t", r); {
		case r == '"' || r == '\\':
			dst = append(dst, '\\', byte(r))
		case k >= 0:
			dst = append(dst, '\\', "bfnrt"[k])
		case r < 0x20 || r == '<' || r == '>' || r == '&':
			dst = append(dst, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		case r == utf8.RuneError && size == 1:
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			dst = append(dst, s[i:i+size]...)
		}
		i += size
	}
	return append(dst, '"')
}

// fleetResyncError writes the 409 resync response; the body carries the
// machine-readable cause alongside the human-readable error.
func fleetResyncError(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(map[string]string{
		"error":        err.Error(),
		"resync_cause": string(resyncCauseOf(err)),
	})
}

// --- telemetry integration ---

var (
	aggregatorSeries = []telemetry.Series[AggregatorStats]{
		telemetry.Gauge("vscsistats_fleet_hosts", "Hosts known to the fleet aggregator.", func(s AggregatorStats) int { return s.Hosts }),
		telemetry.Gauge("vscsistats_fleet_hosts_stale", "Known hosts past the liveness horizon (excluded from merges).", func(s AggregatorStats) int { return s.StaleHosts }),
		telemetry.Counter("vscsistats_fleet_rejected_total", "Frames refused at decode or validation.", func(s AggregatorStats) int64 { return s.Rejected }),
		telemetry.Counter("vscsistats_fleet_rejected_checksum_total", "Refused frames whose bytes failed their CRC-32C trailer.", func(s AggregatorStats) int64 { return s.RejectedChecksum }),
		telemetry.Counter("vscsistats_fleet_recv_bytes_total", "Wire bytes of the pushed frames that were ingested.", func(s AggregatorStats) int64 { return s.RecvBytes }),
	}
	hostSeries = []telemetry.Series[HostStatus]{
		telemetry.Gauge("vscsistats_fleet_host_up", "1 when the host's newest batch is within the liveness horizon.", func(h HostStatus) int {
			if h.Stale {
				return 0
			}
			return 1
		}),
		telemetry.Gauge("vscsistats_fleet_host_age_seconds", "Age of the host's newest batch.", func(h HostStatus) float64 { return h.AgeSeconds }),
		telemetry.Gauge("vscsistats_fleet_host_snapshots", "Virtual disks in the host's newest batch.", func(h HostStatus) int { return h.Snapshots }),
		telemetry.Counter("vscsistats_fleet_host_batches_total", "Batches ingested from the host, retries included.", func(h HostStatus) int64 { return h.Batches }),
	}
	shardSeries = []telemetry.Series[ShardStatus]{
		telemetry.Gauge("vscsistats_fleet_shard_hosts", "Hosts routed to the shard.", func(s ShardStatus) int { return s.Hosts }),
		telemetry.Gauge("vscsistats_fleet_shard_hosts_stale", "Shard hosts past the liveness horizon.", func(s ShardStatus) int { return s.StaleHosts }),
		telemetry.Counter("vscsistats_fleet_shard_batches_total", "Batches ingested by the shard.", func(s ShardStatus) int64 { return s.Batches }),
		telemetry.Counter("vscsistats_fleet_shard_deltas_applied_total", "Delta batches applied onto stored state.", func(s ShardStatus) int64 { return s.DeltasApplied }),
		telemetry.Counter("vscsistats_fleet_shard_duplicates_total", "Redelivered delta batches ignored idempotently.", func(s ShardStatus) int64 { return s.Duplicates }),
		telemetry.Counter("vscsistats_fleet_shard_resyncs_total", "Delta batches refused pending a full-state resync.", func(s ShardStatus) int64 { return s.Resyncs }),
		telemetry.Counter("vscsistats_fleet_shard_merge_cache_hits_total", "Scrapes served from the shard's memoized merge.", func(s ShardStatus) int64 { return s.MergeCacheHits }),
		telemetry.Counter("vscsistats_fleet_shard_merge_cache_misses_total", "Scrapes that re-merged the shard's hosts.", func(s ShardStatus) int64 { return s.MergeCacheMisses }),
	}
	tierSeries = []telemetry.Series[TierStatus]{
		telemetry.Gauge("vscsistats_fleet_tier_hosts", "Hosts reporting at the federation level.", func(t TierStatus) int { return t.Hosts }),
		telemetry.Gauge("vscsistats_fleet_tier_hosts_stale", "Level hosts past the liveness horizon.", func(t TierStatus) int { return t.StaleHosts }),
		telemetry.Gauge("vscsistats_fleet_tier_leaves", "Leaf hosts folded into the level's entries.", func(t TierStatus) int { return t.Leaves }),
	}
	logSeries = []telemetry.Series[LogStats]{
		telemetry.Gauge("vscsistats_fleet_log_segments", "Live segment files in the aggregator's durability log.", func(l LogStats) int { return l.Segments }),
		telemetry.Gauge("vscsistats_fleet_log_bytes", "Bytes held by the segment log.", func(l LogStats) int64 { return l.Bytes }),
		telemetry.Counter("vscsistats_fleet_log_appends_total", "Frames appended to the segment log.", func(l LogStats) int64 { return l.Appends }),
		telemetry.Counter("vscsistats_fleet_log_append_bytes_total", "Bytes appended to the segment log.", func(l LogStats) int64 { return l.AppendBytes }),
		telemetry.Counter("vscsistats_fleet_log_append_errors_total", "Appends absorbed after an encode or I/O failure.", func(l LogStats) int64 { return l.AppendErrors }),
		telemetry.Counter("vscsistats_fleet_log_fsyncs_total", "Batched fsyncs issued by the segment log.", func(l LogStats) int64 { return l.Fsyncs }),
		telemetry.Counter("vscsistats_fleet_log_rotations_total", "Segment rotations.", func(l LogStats) int64 { return l.Rotations }),
		telemetry.Counter("vscsistats_fleet_log_compactions_total", "Shard chains rewritten as one full-frame segment.", func(l LogStats) int64 { return l.Compactions }),
		telemetry.Counter("vscsistats_fleet_log_segments_retired_total", "Sealed segments dropped by retention.", func(l LogStats) int64 { return l.SegmentsRetired }),
		telemetry.Counter("vscsistats_fleet_log_frames_replayed_total", "Frames recovered by boot replay.", func(l LogStats) int64 { return l.FramesReplayed }),
		telemetry.Counter("vscsistats_fleet_log_torn_tails_total", "Crash-torn tail frames truncated away at replay.", func(l LogStats) int64 { return l.TornTails }),
		telemetry.Counter("vscsistats_fleet_log_history_dropped_total", "Corrupt frames history scans dropped.", func(l LogStats) int64 { return l.HistoryDropped }),
	}
	clusterSeries = []telemetry.Series[*core.Snapshot]{
		telemetry.Counter("vscsistats_fleet_commands_total", "Commands observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Commands }),
		telemetry.Counter("vscsistats_fleet_reads_total", "Reads observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.NumReads }),
		telemetry.Counter("vscsistats_fleet_writes_total", "Writes observed across all fresh hosts.", func(s *core.Snapshot) int64 { return s.NumWrites }),
		telemetry.Counter("vscsistats_fleet_read_bytes_total", "Bytes read across all fresh hosts.", func(s *core.Snapshot) int64 { return s.ReadBytes }),
		telemetry.Counter("vscsistats_fleet_write_bytes_total", "Bytes written across all fresh hosts.", func(s *core.Snapshot) int64 { return s.WriteBytes }),
		telemetry.Counter("vscsistats_fleet_errors_total", "Errored commands across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Errors }),
	}
	vmSeries = []telemetry.Series[*core.Snapshot]{
		telemetry.Counter("vscsistats_fleet_vm_commands_total", "Commands per VM merged across all fresh hosts.", func(s *core.Snapshot) int64 { return s.Commands }),
	}
)

// WriteMetrics implements telemetry.Source: the vscsistats_fleet_*
// series. Host liveness, per-shard ingest and merge-cache counters
// (shard="N"), the host set by federation level (level="N"; a region
// dropping out of a federated view is a leaves dip at level 1), the loss
// paths (refused frames, resyncs by cause), the segment log's footprint
// and maintenance counters when one is open, and the merged view: cluster
// and per-VM counters plus the six paper histograms merged cluster-wide
// (bin-exact sums of every fresh host's bins; absent while none is fresh).
func (g *Aggregator) WriteMetrics(w *telemetry.Writer) {
	hosts := g.Hosts()
	st := g.statsOf(hosts)
	telemetry.Table(w, []AggregatorStats{st}, nil, aggregatorSeries)
	telemetry.Table(w, hosts, func(h HostStatus) string { return telemetry.Labels("host", h.Host) }, hostSeries)
	telemetry.Table(w, g.Shards(), func(s ShardStatus) string { return telemetry.Labels("shard", strconv.Itoa(s.Shard)) }, shardSeries)

	const resyncs = "vscsistats_fleet_resyncs_total"
	w.Family(resyncs, "counter", "Delta batches refused pending a full-state resync, by cause.")
	for _, c := range []struct {
		cause ResyncCause
		n     int64
	}{
		{ResyncSeqGap, st.ResyncSeqGap}, {ResyncUnknownHost, st.ResyncUnknownHost}, {ResyncUnknownDisk, st.ResyncUnknownDisk},
		{ResyncLayoutMismatch, st.ResyncLayoutMismatch}, {ResyncBootChanged, st.ResyncBootChanged},
	} {
		w.Sample(resyncs, telemetry.Labels("cause", string(c.cause)), float64(c.n))
	}

	tiers := tiersOf(hosts)
	telemetry.Table(w, tiers, func(t TierStatus) string { return telemetry.Labels("level", strconv.Itoa(t.Level)) }, tierSeries)
	w.Family("vscsistats_fleet_tier_depth", "gauge", "Federation levels present in the host set.")
	w.Sample("vscsistats_fleet_tier_depth", "", float64(len(tiers)))

	if log := g.LogStats(); log.Enabled {
		telemetry.Table(w, []LogStats{log}, nil, logSeries)
	}

	var cluster []*core.Snapshot
	if c := g.ClusterSnapshot(false); c != nil {
		cluster = append(cluster, c)
	}
	telemetry.Table(w, cluster, nil, clusterSeries)
	telemetry.Table(w, g.VMSnapshots(false), func(s *core.Snapshot) string { return telemetry.Labels("vm", s.VM) }, vmSeries)
	if cluster != nil {
		w.WorkloadHistograms("vscsistats_fleet", "Cluster-wide merge: ", cluster, nil)
	}
}

func tiersOf(hosts []HostStatus) []TierStatus {
	byLevel := make(map[int]*TierStatus)
	for _, h := range hosts {
		t := byLevel[h.Level]
		if t == nil {
			t = &TierStatus{Level: h.Level}
			byLevel[h.Level] = t
		}
		t.Hosts++
		if h.Stale {
			t.StaleHosts++
		}
		t.Leaves += h.Leaves
	}
	out := make([]TierStatus, 0, len(byLevel))
	for _, t := range byLevel {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Level < out[j].Level })
	return out
}

// TierStatus is one federation level's slice of the host set.
type TierStatus struct {
	Level      int `json:"level"`
	Hosts      int `json:"hosts"`
	StaleHosts int `json:"stale_hosts"`
	Leaves     int `json:"leaves"`
}
