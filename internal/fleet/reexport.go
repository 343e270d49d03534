package fleet

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
)

// ReExporterConfig tunes a ReExporter. Zero values take the documented
// defaults.
type ReExporterConfig struct {
	// Region names this aggregator in the upstream tier — the synthetic
	// host its rolled-up state reports as (e.g. "region-west"). Required.
	Region string
	// Upstream is the parent aggregator's push URL, e.g.
	// "http://global:9108/fleet/push". Required.
	Upstream string
	// Interval is the re-export period (default 2s). It is also the
	// level-aware staleness horizon: a host aging out of this aggregator's
	// merges changes the next rendered rollup, so the upstream view sheds
	// the host within one interval.
	Interval time.Duration
	// Timeout bounds each upstream push request (default 5s).
	Timeout time.Duration
	// Client overrides the HTTP client (the per-request timeout always
	// comes from Timeout).
	Client *http.Client
	// Obs, when set, receives re-export flush latencies (StageReExport)
	// and KindReExport events. Nil disables re-export observability.
	Obs *fleetobs.Tracker
}

func (c *ReExporterConfig) withDefaults() ReExporterConfig {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 2 * time.Second
	}
	return out
}

// ReExporter makes an aggregator composable: it re-exports the
// aggregator's merged state upstream through the very same push protocol
// the aggregator ingests, so trees of any depth (agents → region →
// global) are built from one wire format and one ingest path.
//
// It renders the region as one synthetic upstream host named Region: one
// snapshot per non-empty shard from the shard's memoized merge, so only
// changed shards are recomputed and sent. Upstream wire bytes and ingest
// scale with regions changed, not with leaf hosts. The rollup goes through
// the sender's delivery step, as an agent's captures do: full state until
// acknowledged, deltas after, and a heartbeat when nothing changed, which
// refreshes the upstream's liveness without invalidating its merge cache.
//
// Every frame carries this process's boot incarnation, its federation
// level (1 + the highest level among fresh downstream hosts) and its leaf
// count, so the upstream can tell a 640-leaf region from a single agent. A
// restarted re-exporter's first delta draws a boot-changed 409 and answers
// it with full state, exactly like an agent after an aggregator restart.
type ReExporter struct {
	cfg ReExporterConfig
	agg *Aggregator

	// snd owns the wire: upstream endpoint, boot incarnation, trace
	// identity, the delivery step and its counters.
	snd *sender

	// mu single-flights flush and guards chain, the rollup's place in the
	// push protocol: deltas are rendered against its base at flush time,
	// and only one flush may advance it.
	mu    sync.Mutex
	chain chain

	level atomic.Int64

	// life owns the re-export loop's start/stop and the failed-delivery
	// record.
	life *lifecycle
}

// NewReExporter wraps the aggregator with an upstream re-export loop. It
// does not start pushing; call Start, or ReExportNow for a synchronous
// flush.
func NewReExporter(agg *Aggregator, cfg ReExporterConfig) *ReExporter {
	if cfg.Region == "" {
		panic("fleet: ReExporterConfig.Region is required")
	}
	if cfg.Upstream == "" {
		panic("fleet: ReExporterConfig.Upstream is required")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &ReExporter{
		cfg: cfg,
		agg: agg,
		// No tracker on the sender: a re-export is one StageReExport span,
		// recorded by ReExportNow around its push.
		snd:  newSender(cfg.Upstream, cfg.Client, cfg.Timeout, nil, rng),
		life: newLifecycle(),
	}
}

// Region returns the re-exporter's upstream identity.
func (r *ReExporter) Region() string { return r.cfg.Region }

// Start launches the re-export loop. Stop ends it with one final flush,
// so the upstream holds the region's last rendered state.
func (r *ReExporter) Start() {
	r.life.start(func() { r.life.every(r.cfg.Interval, func() { r.ReExportNow() }) })
}

// Stop ends the re-export loop and waits for it; safe without Start and
// safe to call twice.
func (r *ReExporter) Stop() {
	r.life.wait()
	r.ReExportNow()
}

// renderRollup folds the aggregator into one synthetic upstream host:
// one snapshot per non-empty shard, straight off the shard's memoized
// merge, shallow-renamed to (Region, shard-NNNN) so entries pair stably
// across intervals. Histograms are shared by reference — snapshots are
// immutable once stored — so rendering copies struct headers, not bins.
// The fold preserves merge exactness: the upstream's merge over these
// shard snapshots equals this aggregator's own cluster merge, because
// aggregation is associative bin by bin.
func (r *ReExporter) renderRollup(now time.Time) []*core.Snapshot {
	var snaps []*core.Snapshot
	for i, sh := range r.agg.shards {
		c := sh.clusterMerge(now, r.agg.cfg.StaleAfter, false)
		if c == nil {
			continue // empty shard: renders nothing, pairs with nothing
		}
		s := *c
		s.VM = r.cfg.Region
		s.Disk = fmt.Sprintf("shard-%04d", i)
		snaps = append(snaps, &s)
	}
	return snaps
}

// tierOf computes the level and folded-leaf count this re-exporter stamps
// on upstream frames: one more than the highest level among fresh
// downstream hosts, and the sum of their leaf counts.
func (r *ReExporter) tierOf() (level, leaves int) {
	for _, h := range r.agg.Hosts() {
		if !h.Stale {
			level = max(level, h.Level)
			leaves += h.Leaves
		}
	}
	return level + 1, leaves
}

// ReExportNow renders the aggregator's current state and pushes it
// upstream synchronously through the sender's delivery step, returning the
// push error. Every rendering is new content, so it draws a fresh sequence
// number. The deterministic flush used by tests, benchmarks and operators
// forcing a final export; the Start loop calls it once per Interval.
func (r *ReExporter) ReExportNow() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := time.Now()
	snaps := r.renderRollup(r.agg.now())
	level, leaves := r.tierOf()
	f := r.snd.frame(r.cfg.Region, r.chain.next(), time.Now().UnixNano(), snaps)
	f.Level, f.Leaves = level, leaves
	b, err := r.snd.deliver(&r.chain, f)
	detail := fmt.Sprintf("%s snapshots=%d level=%d leaves=%d", b.kind(), len(b.Snapshots), b.Level, b.Leaves)
	if err != nil {
		r.life.noteError(err)
		detail = "error: " + err.Error()
	}
	r.cfg.Obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindReExport, Scope: "aggregator",
		Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq, Shard: -1, Detail: detail,
	})
	r.level.Store(int64(level))
	r.cfg.Obs.Observe(fleetobs.StageReExport, time.Since(start), fleetobs.Event{
		Host: r.cfg.Region, Shard: -1,
	})
	return err
}

// ReExporterStats is a point-in-time copy of the re-exporter's counters.
type ReExporterStats struct {
	// Region and Upstream identify the re-export edge; Level is the
	// federation level last stamped on upstream frames (0 before the
	// first flush).
	Region   string
	Upstream string
	Level    int
	// Pushes counts frames delivered upstream; DeltaPushes, Heartbeats
	// and FullPushes split them by mode (heartbeats are liveness-only
	// duplicates). Resyncs counts upstream delta refusals answered with
	// full state; Errors counts failed delivery attempts.
	Pushes, DeltaPushes, Heartbeats, FullPushes, Resyncs, Errors int64
	// SentBytes totals the wire bytes delivered upstream.
	SentBytes int64
	// LastError is the most recent delivery error ("" when none yet).
	LastError string
}

// Stats returns the re-exporter's counters.
func (r *ReExporter) Stats() ReExporterStats {
	return ReExporterStats{
		Region:      r.cfg.Region,
		Upstream:    r.cfg.Upstream,
		Level:       int(r.level.Load()),
		Pushes:      r.snd.pushes.Load(),
		DeltaPushes: r.snd.deltaPushes.Load(),
		Heartbeats:  r.snd.heartbeats.Load(),
		FullPushes:  r.snd.fullPushes.Load(),
		Resyncs:     r.snd.resyncs.Load(),
		Errors:      r.life.errors.Load(),
		SentBytes:   r.snd.sentBytes.Load(),
		LastError:   r.life.lastError(),
	}
}

var reExporterSeries = []telemetry.Series[ReExporterStats]{
	telemetry.Gauge("vscsistats_fleet_tier_reexport_level", "Federation level the re-exporter stamps on upstream frames.", func(s ReExporterStats) int { return s.Level }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_pushes_total", "Re-export frames delivered upstream.", func(s ReExporterStats) int64 { return s.Pushes }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_delta_pushes_total", "Re-export frames delivered as interval deltas.", func(s ReExporterStats) int64 { return s.DeltaPushes }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_heartbeats_total", "Liveness-only duplicate frames sent when nothing changed.", func(s ReExporterStats) int64 { return s.Heartbeats }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_full_pushes_total", "Re-export frames delivered as full state.", func(s ReExporterStats) int64 { return s.FullPushes }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_resyncs_total", "Upstream delta refusals answered with full state.", func(s ReExporterStats) int64 { return s.Resyncs }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_errors_total", "Failed upstream delivery attempts.", func(s ReExporterStats) int64 { return s.Errors }),
	telemetry.Counter("vscsistats_fleet_tier_reexport_sent_bytes_total", "Wire bytes delivered upstream.", func(s ReExporterStats) int64 { return s.SentBytes }),
}

// WriteMetrics implements telemetry.Source: the
// vscsistats_fleet_tier_reexport_* series, the upstream push health of a
// mid-tier aggregator feeding another, labelled region.
func (r *ReExporter) WriteMetrics(w *telemetry.Writer) {
	telemetry.Table(w, []ReExporterStats{r.Stats()},
		func(s ReExporterStats) string { return telemetry.Labels("region", s.Region) }, reExporterSeries)
}
