package fleet

import (
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

// Agent periodically captures a registry's snapshots and pushes them to an
// aggregator through the sender's delivery step — full state until first
// acknowledged, interval deltas after, heartbeats while nothing changes.
// All methods are safe for concurrent use. Between Start and Stop two
// goroutines run: a builder that only captures and enqueues on each tick,
// and a flusher that does all network I/O — so a slow or dead aggregator
// never delays a capture, and the retry queue keeps recording state at
// every interval regardless of what the network is doing.
type Agent struct {
	cfg AgentConfig
	reg *core.Registry

	// mu guards the capture queue, the backoff schedule and its jitter
	// RNG. It is never held across network I/O: each critical section is
	// a few loads and stores, so a flusher stuck on a hung aggregator
	// cannot block buildBatch/enqueue.
	mu sync.Mutex
	// queue holds full-state captures, oldest first. Whether one goes over
	// the wire full, as a delta or as a heartbeat is decided at flush time
	// against the base acknowledged by then, so a capture built while an
	// older push was in flight never carries a stale base sequence.
	queue    []*Batch
	failures int       // consecutive failed flushes
	notUntil time.Time // backoff gate: no network attempt before this
	rng      *rand.Rand
	// spare is a capture set a delivery released, the next capture's
	// memory (DESIGN.md §16): nil, or snapshots no frame, queue entry or
	// base holds any more.
	spare []*core.Snapshot

	// flushMu single-flights flush and guards chain.base: deltas are
	// rendered against the base at flush time, and only one flush may
	// advance it. The builder draws capture numbers from chain.seq.
	flushMu sync.Mutex
	chain   chain

	retries atomic.Int64
	dropped atomic.Int64

	// life owns the push loop's start/stop and the failed-delivery record.
	life *lifecycle

	// snd owns the wire: endpoint, boot incarnation, trace identity, the
	// delivery step and its counters.
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
	a.mu.Lock()
	a.notUntil = time.Time{}
	a.mu.Unlock()
	return a.flush(time.Now())
}

// buildBatch captures the registry into a full frame under a fresh
// sequence number, into the spare set if a delivery released one. No locks
// beyond the registry's own and a.mu's few loads, and no network: this is
// the path that must stay fast however sick the aggregator is.
func (a *Agent) buildBatch() *Batch {
	start := time.Now()
	a.mu.Lock()
	spare := a.spare
	a.spare = nil
	a.mu.Unlock()
	f := a.snd.frame(a.cfg.Host, a.chain.next(), start.UnixNano(), a.reg.SnapshotsInto(spare))
	a.cfg.Obs.ObserveSince(fleetobs.StageCapture, start, fleetobs.Event{
		Host: a.cfg.Host, TraceID: f.TraceID, BatchSeq: f.Seq, Shard: -1,
	})
	return f
}

// enqueue appends f to the capture queue, dropping the oldest entry when
// the queue is full.
func (a *Agent) enqueue(f *Batch) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.queue) >= a.cfg.MaxRetryQueue {
		a.queue = a.queue[1:]
		a.dropped.Add(1)
	}
	a.queue = append(a.queue, f)
}

// flush delivers queued captures oldest-first through the sender's
// delivery step until the queue drains or a push fails. Single-flighted:
// only one flush may advance the chain's base. A failure schedules the
// next attempt with exponential backoff plus ±20% jitter; captures
// enqueued in the meantime wait for it.
func (a *Agent) flush(now time.Time) error {
	if a.cfg.Endpoint == "" {
		return nil
	}
	a.mu.Lock()
	gated := now.Before(a.notUntil)
	a.mu.Unlock()
	if gated {
		return nil
	}
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	for {
		a.mu.Lock()
		if len(a.queue) == 0 {
			a.failures, a.notUntil = 0, time.Time{}
			a.mu.Unlock()
			return nil
		}
		f := a.queue[0]
		a.mu.Unlock()

		base := a.chain.base
		if base != nil && f.Seq <= base.seq {
			// Superseded: the aggregator already acknowledged newer state.
			a.dequeueThrough(f.Seq, nil)
			continue
		}
		if f.Seq < a.chain.seq.Load() {
			a.retries.Add(1)
		}
		b, err := a.snd.deliver(&a.chain, f)
		if err != nil {
			a.mu.Lock()
			a.failures++
			backoff := a.cfg.Interval << (a.failures - 1)
			if backoff > a.cfg.MaxBackoff || backoff <= 0 {
				backoff = a.cfg.MaxBackoff
			}
			// Jitter by ±20% so a fleet of agents that failed together
			// does not retry together.
			jitter := time.Duration(a.rng.Int63n(int64(backoff)/5+1)) - backoff/10
			a.notUntil = now.Add(backoff + jitter)
			a.mu.Unlock()
			a.life.noteError(err)
			return err
		}
		// Queue dwell: capture to acknowledged delivery, retries and
		// backoff included — the agent-side end-to-end latency.
		a.cfg.Obs.Observe(fleetobs.StageQueueDwell,
			time.Since(time.Unix(0, f.SentUnixNano)), fleetobs.Event{
				Host: a.cfg.Host, TraceID: f.TraceID, BatchSeq: f.Seq, Shard: -1,
			})
		// What the ack released: a heartbeat's capture, whose state the base
		// already holds, or the base the ack replaced, whose frame left the
		// queue when it was acknowledged.
		var released []*core.Snapshot
		switch {
		case b.kind() == "heartbeat":
			released = f.Snapshots
		case base != nil:
			released = base.full
		}
		a.dequeueThrough(f.Seq, released)
	}
}

// dequeueThrough removes every queued capture with seq <= through —
// delivered or superseded state (captures are cumulative, so a newer
// delivery carries everything an older one did) — and, as the receiver
// holds that state, ends the run of consecutive failures. Then released,
// a capture set nothing holds any more, becomes the spare unless one is
// kept already.
func (a *Agent) dequeueThrough(through uint64, released []*core.Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rest := a.queue[:0]
	for _, f := range a.queue {
		if f.Seq > through {
			rest = append(rest, f)
		}
	}
	a.queue = rest
	a.failures = 0
	if a.spare == nil {
		a.spare = released
	}
}

// AgentStats is a point-in-time copy of the agent's counters.
type AgentStats struct {
	// Pushes counts captures delivered; DeltaPushes and Heartbeats the
	// subsets that went over the wire as interval deltas and as
	// liveness-only heartbeats (nothing changed); Errors counts failed
	// delivery attempts; Retries counts deliveries of captures older than
	// the newest; Dropped counts captures evicted from the full retry
	// queue; Resyncs counts delta refusals answered with a full-state push.
	Pushes, DeltaPushes, Heartbeats, Errors, Retries, Dropped, Resyncs int64
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
	a.mu.Lock()
	qlen, failures := len(a.queue), a.failures
	a.mu.Unlock()
	return AgentStats{
		Pushes:      a.snd.pushes.Load(),
		DeltaPushes: a.snd.deltaPushes.Load(),
		Heartbeats:  a.snd.heartbeats.Load(),
		Errors:      a.life.errors.Load(),
		Retries:     a.retries.Load(),
		Dropped:     a.dropped.Load(),
		Resyncs:     a.snd.resyncs.Load(),
		SentBytes:   a.snd.sentBytes.Load(),
		QueueLen:    qlen,
		Failures:    failures,
		LastError:   a.life.lastError(),
	}
}

var agentSeries = []telemetry.Series[AgentStats]{
	telemetry.Counter("vscsistats_fleet_agent_pushes_total", "Batches the agent delivered.", func(s AgentStats) int64 { return s.Pushes }),
	telemetry.Counter("vscsistats_fleet_agent_delta_pushes_total", "Batches delivered as interval deltas.", func(s AgentStats) int64 { return s.DeltaPushes }),
	telemetry.Counter("vscsistats_fleet_agent_heartbeats_total", "Liveness-only frames sent when nothing changed.", func(s AgentStats) int64 { return s.Heartbeats }),
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
