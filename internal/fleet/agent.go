package fleet

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
)

// AgentConfig tunes a fleet agent. Zero values take the documented
// defaults.
type AgentConfig struct {
	// Host names this host in the fleet, e.g. "esx-01". Required.
	Host string
	// Endpoint is the aggregator's push URL, e.g.
	// "http://aggregator:9108/fleet/push". Empty makes every flush a
	// no-op: the agent captures and counts but sends nothing.
	Endpoint string
	// Interval is the push period (default 2s).
	Interval time.Duration
	// Timeout bounds each push request (default 5s).
	Timeout time.Duration
	// MaxRetryQueue bounds the batches kept for retry after failed pushes
	// (default 16). When full, the oldest batch is dropped — batches are
	// cumulative, so the next successful push carries everything a dropped
	// one did.
	MaxRetryQueue int
	// MaxBackoff caps the exponential backoff between failed pushes
	// (default 30s; the first retry waits Interval).
	MaxBackoff time.Duration
	// DisableDeltas forces every push to carry full cumulative state. By
	// default, once a push has been acknowledged, the agent sends interval
	// deltas against that acknowledged state — with unchanged disks
	// omitted entirely — and falls back to a full push automatically
	// whenever the aggregator cannot apply one (restart, sequence gap) or
	// the registry's disk set changes.
	DisableDeltas bool
	// Client overrides the HTTP client (default: a dedicated client; the
	// per-request timeout always comes from Timeout).
	Client *http.Client
	// Obs, when set, receives per-stage latency samples (capture, delta
	// render, encode, push round-trip, queue dwell) and trace-stamped
	// pipeline events. Nil disables agent-side observability at the cost
	// of one branch per stage.
	Obs *fleetobs.Tracker
}

func (c *AgentConfig) withDefaults() AgentConfig {
	out := *c
	if out.Interval <= 0 {
		out.Interval = 2 * time.Second
	}
	if out.MaxRetryQueue <= 0 {
		out.MaxRetryQueue = 16
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 30 * time.Second
	}
	return out
}

// queued is one registry capture awaiting delivery. The queue always holds
// full cumulative state; whether a capture goes over the wire full or as a
// delta is decided at flush time against the base acknowledged by then, so
// a capture built while an older push was still in flight never carries a
// stale base sequence.
type queued struct {
	seq          uint64
	sentUnixNano int64
	full         []*core.Snapshot
	// traceID is stamped at capture and rides the frame header, so this
	// one push is followable across processes.
	traceID string
}

// Agent periodically captures a registry's snapshots and pushes them to an
// aggregator — full state until first acknowledged, interval deltas after.
// All methods are safe for concurrent use. Between Start and Stop two
// goroutines run: a builder that only captures and enqueues on each tick,
// and a flusher that does all network I/O — so a slow or dead aggregator
// never delays a capture, and the retry queue keeps recording state at
// every interval regardless of what the network is doing.
type Agent struct {
	cfg AgentConfig
	reg *core.Registry

	seq atomic.Uint64

	// qmu guards only the capture queue — the builder's hot path. It is
	// never held across network I/O or while computing backoff.
	qmu   sync.Mutex
	queue []*queued

	// bmu guards the backoff schedule and its jitter RNG, deliberately
	// split from qmu: a flusher stuck computing backoff (or a Stats call
	// reading it) cannot block buildBatch/enqueue.
	bmu      sync.Mutex
	failures int       // consecutive failed flushes
	notUntil time.Time // backoff gate: no network attempt before this
	rng      *rand.Rand

	// baseMu guards the delta base. Flushers update it on every ack.
	baseMu sync.Mutex
	base   *ackedBase // nil until the first acknowledged push

	// flushMu single-flights flush: deltas are computed against the base
	// at flush time, so two interleaved flushes could otherwise both build
	// deltas on a base one of them is about to advance.
	flushMu sync.Mutex

	pushes      atomic.Int64
	deltaPushes atomic.Int64
	retries     atomic.Int64
	dropped     atomic.Int64
	resyncs     atomic.Int64

	// life owns the push loop's start/stop and the failed-delivery record.
	life *lifecycle

	// snd owns the wire: endpoint, boot incarnation, trace identity and the
	// one encode → POST → status fold.
	snd *sender
}

// NewAgent builds an agent over the registry. It does not start pushing;
// call Start, or PushNow for a synchronous push.
func NewAgent(reg *core.Registry, cfg AgentConfig) *Agent {
	if cfg.Host == "" {
		panic("fleet: AgentConfig.Host is required")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &Agent{
		cfg:  cfg,
		reg:  reg,
		life: newLifecycle(),
		rng:  rng,
		snd:  newSender(cfg.Endpoint, cfg.Client, cfg.Timeout, cfg.Obs, rng),
	}
}

// Host returns the agent's fleet identity.
func (a *Agent) Host() string { return a.cfg.Host }

// Start launches the push loop. Stop ends it; Start after Stop is a no-op.
func (a *Agent) Start() { a.life.start(a.run) }

// Stop ends the push loop, waits for it to exit, then drains the capture
// queue with one bounded best-effort flush. The flusher goroutine exits on
// stop even when a kick is pending, so without the drain a capture built on
// the final tick — the last interval of data — would sit in the queue and
// vanish with the process. The drain honors the backoff gate (an aggregator
// already failing is not hammered on the way out) and each push is bounded
// by the configured timeout; a failure is recorded in Stats and dropped,
// never retried — Stop must terminate. Safe to call without Start (the
// loop goroutine is then never created) and safe to call twice.
func (a *Agent) Stop() {
	a.life.wait()
	a.flush(time.Now())
}

// BeginStop signals the push loop to exit without waiting for it or
// draining the queue; Stop completes the shutdown. Callers stopping a
// fleet of agents should signal them all before draining any — with a
// one-at-a-time Stop loop, agents late in the order keep capturing and
// pushing while early ones drain, and on a loaded machine the collective
// enqueue rate can outrun the drain rate indefinitely. Safe to call
// without Start and safe to call twice.
func (a *Agent) BeginStop() { a.life.beginStop() }

func (a *Agent) run() {
	// The flusher owns all network I/O; the builder below only captures
	// and enqueues, then kicks the flusher. kick has a buffer of one: a
	// kick during a slow flush coalesces with the next drain rather than
	// piling up.
	kick := make(chan struct{}, 1)
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-a.life.stop:
				return
			case <-kick:
				a.flush(time.Now())
			}
		}
	}()
	a.life.every(a.cfg.Interval, func() {
		a.enqueue(a.buildBatch())
		select {
		case kick <- struct{}{}:
		default:
		}
	})
	flusher.Wait()
}

// PushNow captures the registry and flushes the queue synchronously,
// ignoring the backoff gate — the deterministic push used by tests and by
// operators forcing a final flush. It returns the first flush error, if
// any.
func (a *Agent) PushNow() error {
	a.enqueue(a.buildBatch())
	a.bmu.Lock()
	a.notUntil = time.Time{}
	a.bmu.Unlock()
	return a.flush(time.Now())
}

// buildBatch captures the registry into a sequenced queue entry. No locks
// beyond the registry's own and no network: this is the path that must
// stay fast however sick the aggregator is.
func (a *Agent) buildBatch() *queued {
	start := time.Now()
	q := &queued{
		seq:          a.seq.Add(1),
		sentUnixNano: start.UnixNano(),
		full:         a.reg.Snapshots(),
	}
	q.traceID = a.snd.traceID(a.cfg.Host, q.seq)
	a.cfg.Obs.ObserveSince(fleetobs.StageCapture, start, fleetobs.Event{
		Host: a.cfg.Host, TraceID: q.traceID, BatchSeq: q.seq, Shard: -1,
	})
	return q
}

// enqueue appends q to the capture queue, dropping the oldest entry when
// the queue is full.
func (a *Agent) enqueue(q *queued) {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	if len(a.queue) >= a.cfg.MaxRetryQueue {
		a.queue = a.queue[1:]
		a.dropped.Add(1)
	}
	a.queue = append(a.queue, q)
}

// currentBase reads the acknowledged base.
func (a *Agent) currentBase() *ackedBase {
	a.baseMu.Lock()
	defer a.baseMu.Unlock()
	return a.base
}

// advanceBase records q as acknowledged, monotonically.
func (a *Agent) advanceBase(q *queued) {
	a.baseMu.Lock()
	defer a.baseMu.Unlock()
	if a.base == nil || q.seq > a.base.seq {
		a.base = &ackedBase{seq: q.seq, full: q.full}
	}
}

// clearBase forgets the acknowledged base; the next wire batch is full.
func (a *Agent) clearBase() {
	a.baseMu.Lock()
	a.base = nil
	a.baseMu.Unlock()
}

// makeWire renders a queue entry for the wire: a delta against the current
// acknowledged base when one exists and the disk sets line up (with
// unchanged disks omitted — on a slowly-changing fleet most of the frame
// vanishes), a full batch otherwise.
func (a *Agent) makeWire(q *queued) *Batch {
	b := a.snd.frame(a.cfg.Host, q.seq, q.sentUnixNano, q.full)
	if a.cfg.DisableDeltas {
		return b
	}
	base := a.currentBase()
	if base == nil || q.seq <= base.seq {
		return b
	}
	start := time.Now()
	deltas, ok := subAgainst(q.full, base.full)
	a.cfg.Obs.ObserveSince(fleetobs.StageDeltaRender, start, fleetobs.Event{
		Host: a.cfg.Host, TraceID: q.traceID, BatchSeq: q.seq, Shard: -1,
	})
	if !ok {
		return b
	}
	b.Delta = true
	b.BaseSeq = base.seq
	b.Snapshots = deltas
	return b
}

// flush delivers queued captures oldest-first until the queue drains or a
// push fails. Single-flighted: deltas are computed against the base at
// send time, and only one sender may advance that base. A failure
// schedules the next attempt with exponential backoff plus ±20% jitter;
// captures enqueued in the meantime wait for it. A resync refusal is not a
// failure: the agent clears its base and immediately retries the same
// capture as full state.
func (a *Agent) flush(now time.Time) error {
	if a.cfg.Endpoint == "" {
		return nil
	}
	a.bmu.Lock()
	gated := now.Before(a.notUntil)
	a.bmu.Unlock()
	if gated {
		return nil
	}
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	for {
		a.qmu.Lock()
		if len(a.queue) == 0 {
			a.qmu.Unlock()
			a.bmu.Lock()
			a.failures = 0
			a.notUntil = time.Time{}
			a.bmu.Unlock()
			return nil
		}
		q := a.queue[0]
		a.qmu.Unlock()

		if base := a.currentBase(); base != nil && q.seq <= base.seq {
			// Superseded: the aggregator already acknowledged newer state.
			a.dequeueThrough(q.seq)
			continue
		}
		if q.seq < a.seq.Load() {
			a.retries.Add(1)
		}

		wire := a.makeWire(q)
		err := a.snd.push(wire)
		switch {
		case err == nil:
			// Queue dwell: capture to acknowledged delivery, retries and
			// backoff included — the agent-side end-to-end latency.
			a.cfg.Obs.Observe(fleetobs.StageQueueDwell,
				time.Since(time.Unix(0, q.sentUnixNano)), fleetobs.Event{
					Host: a.cfg.Host, TraceID: q.traceID, BatchSeq: q.seq, Shard: -1,
				})
			a.advanceBase(q)
			a.dequeueThrough(q.seq)
			a.bmu.Lock()
			a.failures = 0
			a.bmu.Unlock()
			a.pushes.Add(1)
			if wire.Delta {
				a.deltaPushes.Add(1)
			}
		case errors.Is(err, errResync) && wire.Delta:
			// The aggregator lost our base (restart) or we skipped past it
			// (gap). Forget the base and re-send this same capture as full
			// state, immediately — resync is protocol, not failure.
			a.resyncs.Add(1)
			a.clearBase()
		default:
			a.bmu.Lock()
			a.failures++
			backoff := a.cfg.Interval << (a.failures - 1)
			if backoff > a.cfg.MaxBackoff || backoff <= 0 {
				backoff = a.cfg.MaxBackoff
			}
			// Jitter by ±20% so a fleet of agents that failed together
			// does not retry together.
			jitter := time.Duration(a.rng.Int63n(int64(backoff)/5+1)) - backoff/10
			a.notUntil = now.Add(backoff + jitter)
			a.bmu.Unlock()
			a.life.noteError(err)
			return err
		}
	}
}

// dequeueThrough removes every queued capture with seq <= through —
// delivered or superseded state (captures are cumulative, so a newer
// delivery carries everything an older one did).
func (a *Agent) dequeueThrough(through uint64) {
	a.qmu.Lock()
	defer a.qmu.Unlock()
	rest := a.queue[:0]
	for _, q := range a.queue {
		if q.seq > through {
			rest = append(rest, q)
		}
	}
	a.queue = rest
}

// AgentStats is a point-in-time copy of the agent's counters.
type AgentStats struct {
	// Pushes counts batches delivered; DeltaPushes the subset that went
	// over the wire as interval deltas; Errors counts failed delivery
	// attempts; Retries counts deliveries of captures older than the
	// newest; Dropped counts captures evicted from the full retry queue;
	// Resyncs counts delta refusals answered with a full-state push.
	Pushes, DeltaPushes, Errors, Retries, Dropped, Resyncs int64
	// SentBytes totals the wire bytes of delivered batches.
	SentBytes int64
	// QueueLen is the current retry-queue depth and Failures the current
	// consecutive-failure count driving backoff.
	QueueLen, Failures int
	// LastError is the most recent push error ("" when none yet).
	LastError string
}

// Stats returns the agent's counters.
func (a *Agent) Stats() AgentStats {
	a.qmu.Lock()
	qlen := len(a.queue)
	a.qmu.Unlock()
	a.bmu.Lock()
	failures := a.failures
	a.bmu.Unlock()
	return AgentStats{
		Pushes:      a.pushes.Load(),
		DeltaPushes: a.deltaPushes.Load(),
		Errors:      a.life.errors.Load(),
		Retries:     a.retries.Load(),
		Dropped:     a.dropped.Load(),
		Resyncs:     a.resyncs.Load(),
		SentBytes:   a.snd.sentBytes.Load(),
		QueueLen:    qlen,
		Failures:    failures,
		LastError:   a.life.lastError(),
	}
}

var agentSeries = []telemetry.Series[AgentStats]{
	telemetry.Counter("vscsistats_fleet_agent_pushes_total", "Batches the agent delivered.", func(s AgentStats) int64 { return s.Pushes }),
	telemetry.Counter("vscsistats_fleet_agent_delta_pushes_total", "Batches delivered as interval deltas.", func(s AgentStats) int64 { return s.DeltaPushes }),
	telemetry.Counter("vscsistats_fleet_agent_errors_total", "Failed delivery attempts.", func(s AgentStats) int64 { return s.Errors }),
	telemetry.Counter("vscsistats_fleet_agent_retries_total", "Deliveries of captures older than the newest.", func(s AgentStats) int64 { return s.Retries }),
	telemetry.Counter("vscsistats_fleet_agent_dropped_total", "Captures evicted from the full retry queue.", func(s AgentStats) int64 { return s.Dropped }),
	telemetry.Counter("vscsistats_fleet_agent_resyncs_total", "Delta refusals answered with a full-state push.", func(s AgentStats) int64 { return s.Resyncs }),
	telemetry.Counter("vscsistats_fleet_agent_sent_bytes_total", "Wire bytes of delivered batches.", func(s AgentStats) int64 { return s.SentBytes }),
	telemetry.Gauge("vscsistats_fleet_agent_queue_length", "Captures waiting in the retry queue.", func(s AgentStats) int { return s.QueueLen }),
	telemetry.Gauge("vscsistats_fleet_agent_failures", "Consecutive failed pushes driving the current backoff.", func(s AgentStats) int { return s.Failures }),
}

// WriteMetrics implements telemetry.Source: the vscsistats_fleet_agent_*
// series, the leaf end of every loss path (failed, retried and dropped
// captures, resyncs), labelled host.
func (a *Agent) WriteMetrics(w *telemetry.Writer) {
	host := telemetry.Labels("host", a.cfg.Host)
	telemetry.Table(w, []AgentStats{a.Stats()}, func(AgentStats) string { return host }, agentSeries)
}
