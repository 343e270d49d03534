package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// errResync reports a delta push the receiver refused with a 4xx: the
// base the delta was built on is gone (receiver restart, seq gap, boot
// change) or the frame was otherwise unappliable. deliver's reaction is
// always the same — clear the acknowledged base and push full state — so
// every 4xx on a delta folds into this one error.
var errResync = errors.New("fleet: aggregator requested resync")

// ackedBase is the last state the receiver acknowledged for one host name
// — the state deltas are computed against. The receiver's no-rollback
// apply rule guarantees it holds at least this sequence.
type ackedBase struct {
	seq  uint64
	full []*core.Snapshot
}

// chain is one pushed name's position in the push protocol as its sender
// sees it. Sequence numbers name content: a capture or a rendering draws a
// fresh one with next, a retry of the same content reuses it, and a failed
// attempt burns it — so no number ever carries two contents.
type chain struct {
	seq  atomic.Uint64 // the last number drawn
	base *ackedBase    // nil until the first acknowledged push, and after a resync
	// unsure is set when a frame that could have changed the receiver
	// failed after base was acknowledged. Its ack may be what was lost, so
	// the receiver may be past base, and a heartbeat would leave it there.
	unsure bool
	// deltas is the memory subAgainst renders into. A rendered frame lives
	// only until deliver returns, so each rendering reuses the last one's.
	deltas []*core.Snapshot
}

// next draws a fresh sequence number for new content.
func (c *chain) next() uint64 { return c.seq.Add(1) }

// subAgainst pairs cur with base by index and returns the non-zero interval
// deltas, written into the chain's own memory. Both sides list their disks
// in (VM, disk) order, as every frame does, so a disk set that is the same
// pairs index for index. It refuses (ok=false) on any mismatch — a disk
// appeared or vanished — which forces a full push carrying the new set.
func (c *chain) subAgainst(cur, base []*core.Snapshot) ([]*core.Snapshot, bool) {
	if len(cur) != len(base) {
		return nil, false
	}
	n := 0
	for i, s := range cur {
		if base[i].VM != s.VM || base[i].Disk != s.Disk {
			return nil, false
		}
		if n == len(c.deltas) {
			c.deltas = append(c.deltas, new(core.Snapshot))
		}
		if !s.SubInto(c.deltas[n], base[i]) {
			n++ // changed since the base; an unchanged disk is omitted
		}
	}
	return c.deltas[:n], true
}

// sender is the sending half of the push protocol (DESIGN.md §10 "Protocol
// rules"), shared by every process that pushes frames: where they go, the
// identity stamped on them, the one encode → POST → status fold, and the
// one delivery step that picks full, delta or heartbeat. When to send, and
// what — the capture queue and backoff, the rendering — is its owner's.
type sender struct {
	endpoint string
	client   *http.Client
	timeout  time.Duration
	obs      *fleetobs.Tracker // encode and round-trip spans; nil records none

	// boot is this process's incarnation, stamped on every frame so a
	// receiver can tell a restarted sender (sequences start over) from a
	// late retry. Non-zero: zero on the wire means "pre-federation sender".
	boot uint64
	// traceSalt keeps trace IDs distinct across restarts.
	traceSalt uint32

	// Frames delivered, split by kind; resyncs counts delta refusals
	// answered with full state.
	pushes, deltaPushes, heartbeats, fullPushes, resyncs atomic.Int64
	sentBytes                                            atomic.Int64
}

// newSender draws the process identity from rng; a nil client or a
// non-positive timeout takes the documented default (5s).
func newSender(endpoint string, client *http.Client, timeout time.Duration, obs *fleetobs.Tracker, rng *rand.Rand) *sender {
	if client == nil {
		client = &http.Client{}
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	s := &sender{endpoint: endpoint, client: client, timeout: timeout, obs: obs, traceSalt: uint32(rng.Int63())}
	for s.boot == 0 {
		s.boot = uint64(rng.Int63())<<1 ^ uint64(rng.Int63())
	}
	return s
}

// traceID renders a frame's end-to-end trace identity: host-salt-seq,
// unique across the fleet (host) and across sender restarts (salt).
func (s *sender) traceID(host string, seq uint64) string {
	return fmt.Sprintf("%s-%08x-%d", host, s.traceSalt, seq)
}

// frame stamps one full-state batch captured at the given time with this
// sender's identity; deliver turns it into a delta or heartbeat.
func (s *sender) frame(host string, seq uint64, at int64, snaps []*core.Snapshot) *Batch {
	return &Batch{
		Host: host, Seq: seq, SentUnixNano: at, CaptureUnixNano: at, Snapshots: snaps,
		TraceID: s.traceID(host, seq), Boot: s.boot,
	}
}

// deliver is the delivery step both owners call: it sends the content f —
// full state, numbered by its owner — under c, as
//   - full state when c has no base or the disk set changed;
//   - a heartbeat when nothing changed since the base: Seq = base.seq,
//     BaseSeq = base.seq-1 and no snapshots, a duplicate the receiver
//     answers by refreshing liveness alone; the base does not advance;
//   - otherwise the delta against the base.
//
// A 4xx on a delta or heartbeat clears the base and re-sends f full at
// once: resync is protocol, not failure. Any other error is returned for
// the owner to retry. deliver returns the frame it sent last.
func (s *sender) deliver(c *chain, f *Batch) (*Batch, error) {
	b := s.render(c, f)
	err := s.push(b)
	if errors.Is(err, errResync) {
		s.resyncs.Add(1)
		c.base = nil
		b = f
		err = s.push(b)
	}
	if err != nil {
		if b.kind() != "heartbeat" {
			c.unsure = true
		}
		return b, err
	}
	s.pushes.Add(1)
	switch b.kind() {
	case "heartbeat":
		s.heartbeats.Add(1)
		return b, nil
	case "delta":
		s.deltaPushes.Add(1)
	default:
		s.fullPushes.Add(1)
	}
	c.base, c.unsure = &ackedBase{seq: f.Seq, full: f.Snapshots}, false
	return b, nil
}

// render picks the frame deliver sends first for f under c.
func (s *sender) render(c *chain, f *Batch) *Batch {
	if c.base == nil {
		return f
	}
	start := time.Now()
	deltas, ok := c.subAgainst(f.Snapshots, c.base.full)
	s.obs.ObserveSince(fleetobs.StageDeltaRender, start, fleetobs.Event{
		Host: f.Host, TraceID: f.TraceID, BatchSeq: f.Seq, Shard: -1,
	})
	if !ok || (len(deltas) == 0 && c.unsure) {
		return f
	}
	d := *f
	d.Delta, d.BaseSeq, d.Snapshots = true, c.base.seq, deltas
	if len(deltas) == 0 {
		d.Seq, d.BaseSeq = c.base.seq, c.base.seq-1
	}
	return &d
}

// kind names a frame as deliver sends it: "full", "delta" (an interval)
// or "heartbeat" (a delta with nothing in it).
func (b *Batch) kind() string {
	switch {
	case !b.Delta:
		return "full"
	case len(b.Snapshots) == 0:
		return "heartbeat"
	}
	return "delta"
}

// push sends one batch with the per-request timeout. Any 4xx on a delta
// means this frame can never be applied as-is — re-sending full state is
// the only road forward — so it returns errResync; 5xx and transport
// errors stay retryable failures.
func (s *sender) push(b *Batch) error {
	ev := fleetobs.Event{Host: b.Host, TraceID: b.TraceID, BatchSeq: b.Seq, Shard: -1}
	encStart := time.Now()
	body, err := EncodeBatchBytes(b)
	s.obs.ObserveSince(fleetobs.StageEncode, encStart, ev)
	if err != nil {
		return err
	}
	// Every push is bounded by its own deadline, not a caller's.
	ctx, cancel := context.WithTimeout(context.Background(), s.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ContentType)
	pushStart := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		ev.Detail = "transport error"
		s.obs.ObserveSince(fleetobs.StagePush, pushStart, ev)
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	ev.Detail = resp.Status
	s.obs.ObserveSince(fleetobs.StagePush, pushStart, ev)
	if resp.StatusCode != http.StatusOK {
		if b.Delta && resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return fmt.Errorf("%w (aggregator returned %s)", errResync, resp.Status)
		}
		return fmt.Errorf("fleet: aggregator returned %s", resp.Status)
	}
	s.sentBytes.Add(int64(len(body)))
	return nil
}

// lifecycle is what the loops of the pushing components have in common: at
// most one loop goroutine, started once, told to stop once and waited for,
// and the record of deliveries that failed. What a tick does, and the final
// flush once the loop has exited, are its owner's.
type lifecycle struct {
	startOnce, stopOnce sync.Once
	stop                chan struct{}
	running             sync.WaitGroup

	errors  atomic.Int64
	lastErr atomic.Pointer[string]
}

func newLifecycle() *lifecycle { return &lifecycle{stop: make(chan struct{})} }

// start runs loop, which returns once stop closes, on its own goroutine. A
// second start, or a start after wait, does nothing.
func (l *lifecycle) start(loop func()) {
	l.startOnce.Do(func() {
		l.running.Add(1)
		go func() {
			defer l.running.Done()
			loop()
		}()
	})
}

// every calls tick once per interval until stop closes.
func (l *lifecycle) every(interval time.Duration, tick func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			tick()
		}
	}
}

// beginStop tells the loop to exit without waiting for it.
func (l *lifecycle) beginStop() { l.stopOnce.Do(func() { close(l.stop) }) }

// wait tells the loop to exit and returns once it has, or at once if it
// never started — and then it never will.
func (l *lifecycle) wait() {
	l.beginStop()
	l.startOnce.Do(func() {})
	l.running.Wait()
}

// noteError records one failed delivery.
func (l *lifecycle) noteError(err error) {
	l.errors.Add(1)
	msg := err.Error()
	l.lastErr.Store(&msg)
}

// lastError returns the most recent failure, "" when there has been none.
func (l *lifecycle) lastError() string {
	if msg := l.lastErr.Load(); msg != nil {
		return *msg
	}
	return ""
}
