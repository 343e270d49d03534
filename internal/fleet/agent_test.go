package fleet

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// aggServer wraps an Aggregator in an httptest server, counting requests
// and non-200 responses.
type aggServer struct {
	agg      *Aggregator
	srv      *httptest.Server
	requests atomic.Int64
	failures atomic.Int64
	// refuse, while set, makes the server answer 503 without ingesting.
	refuse atomic.Bool
}

func newAggServer(t *testing.T, cfg AggregatorConfig) *aggServer {
	t.Helper()
	as := &aggServer{agg: NewAggregator(cfg)}
	as.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		as.requests.Add(1)
		if as.refuse.Load() {
			as.failures.Add(1)
			http.Error(w, "refused", http.StatusServiceUnavailable)
			return
		}
		rec := httptest.NewRecorder()
		as.agg.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			as.failures.Add(1)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(as.srv.Close)
	return as
}

func (as *aggServer) pushURL() string { return as.srv.URL + "/fleet/push" }

func TestAgentPushDelivers(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{})
	reg := makeRegistry(1, 2, 1, 300)
	a := NewAgent(reg, AgentConfig{Host: "esx-a", Endpoint: as.pushURL()})
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	hosts := as.agg.Hosts()
	if len(hosts) != 1 || hosts[0].Host != "esx-a" || hosts[0].Seq != 1 || hosts[0].Snapshots != 2 {
		t.Fatalf("aggregator hosts after push: %+v", hosts)
	}
	if s := a.Stats(); s.Pushes != 1 || s.Errors != 0 || s.QueueLen != 0 || s.SentBytes == 0 {
		t.Errorf("agent stats: %+v", s)
	}
	// The merged view equals the registry's own aggregate, bin for bin.
	want := hostSnapshot(reg)
	if got := as.agg.ClusterSnapshot(false); !sameSnapshot(got, want) {
		t.Error("cluster snapshot diverged from the pushing registry")
	}
}

func TestAgentRetryQueueBoundedWithDropCounters(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{})
	as.refuse.Store(true)
	reg := makeRegistry(2, 1, 1, 100)
	a := NewAgent(reg, AgentConfig{
		Host: "esx-b", Endpoint: as.pushURL(), MaxRetryQueue: 4,
	})
	for i := 0; i < 10; i++ {
		if err := a.PushNow(); err == nil {
			t.Fatal("push succeeded against a refusing aggregator")
		}
		// Fresh traffic after every capture, so each one is new content:
		// captures of unchanged state drain as heartbeats.
		feed(reg.List()[0], 600+i, 10)
	}
	st := a.Stats()
	if st.QueueLen > 4 {
		t.Errorf("retry queue grew to %d, limit 4", st.QueueLen)
	}
	if st.Dropped != 6 {
		t.Errorf("dropped = %d, want 6 (10 batches, queue of 4)", st.Dropped)
	}
	if st.Errors != 10 || st.Pushes != 0 {
		t.Errorf("errors/pushes = %d/%d, want 10/0", st.Errors, st.Pushes)
	}
	if st.LastError == "" || st.Failures == 0 {
		t.Errorf("failure state not recorded: %+v", st)
	}

	// Recovery: the queue drains oldest-first, newest state wins, and the
	// aggregator lands on the newest sequence.
	as.refuse.Store(false)
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	st = a.Stats()
	if st.QueueLen != 0 || st.Failures != 0 {
		t.Errorf("queue not drained after recovery: %+v", st)
	}
	if st.Retries == 0 {
		t.Error("draining old batches did not count as retries")
	}
	hosts := as.agg.Hosts()
	if len(hosts) != 1 || hosts[0].Seq != 11 {
		t.Fatalf("aggregator should hold newest seq 11: %+v", hosts)
	}
	if got := as.agg.ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(reg)) {
		t.Error("drained queue left the aggregator behind the registry")
	}
}

func TestAgentBackoffGatesTickPushes(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{})
	as.refuse.Store(true)
	reg := makeRegistry(3, 1, 1, 50)
	a := NewAgent(reg, AgentConfig{
		Host: "esx-c", Endpoint: as.pushURL(),
		Interval: time.Minute, MaxBackoff: time.Hour,
	})
	now := time.Now()
	a.enqueue(a.buildBatch())
	if err := a.flush(now); err == nil {
		t.Fatal("flush against refusing server should fail")
	}
	before := as.requests.Load()
	// Within the backoff window the flush must not touch the network.
	if err := a.flush(now.Add(time.Second)); err != nil {
		t.Fatalf("gated flush returned error: %v", err)
	}
	if got := as.requests.Load(); got != before {
		t.Errorf("backoff gate leaked a request: %d -> %d", before, got)
	}
	// Far past any plausible backoff the agent tries again.
	if err := a.flush(now.Add(24 * time.Hour)); err == nil {
		t.Fatal("expected the retry to fail against the refusing server")
	}
	if got := as.requests.Load(); got != before+1 {
		t.Errorf("retry after backoff did not reach the server")
	}
}

func TestAgentStartStopLifecycle(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{})
	reg := makeRegistry(4, 1, 1, 200)
	a := NewAgent(reg, AgentConfig{
		Host: "esx-d", Endpoint: as.pushURL(), Interval: 5 * time.Millisecond,
	})
	a.Start()
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Pushes < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	a.Stop()
	a.Stop() // idempotent
	if got := a.Stats().Pushes; got < 2 {
		t.Fatalf("push loop delivered %d batches, want >= 2", got)
	}
	settled := as.requests.Load()
	time.Sleep(25 * time.Millisecond)
	if got := as.requests.Load(); got != settled {
		t.Errorf("pushes continued after Stop: %d -> %d", settled, got)
	}

	// Stop without Start must not hang.
	idle := NewAgent(reg, AgentConfig{Host: "esx-idle", Endpoint: as.pushURL()})
	done := make(chan struct{})
	go func() { idle.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop without Start hung")
	}
}

// TestAgentStopDrainsFinalCapture pins the Stop-time drain: a capture
// sitting in the queue when Stop is called — the final interval of data,
// previously lost with the process — is delivered by Stop's bounded flush
// before it returns.
func TestAgentStopDrainsFinalCapture(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{})
	reg := makeRegistry(8, 1, 2, 250)
	a := NewAgent(reg, AgentConfig{Host: "esx-h", Endpoint: as.pushURL()})

	// The enqueue without a flush models the run loop's final tick: the
	// builder captured, the flusher exited before its kick was served.
	a.enqueue(a.buildBatch())
	if got := a.Stats().QueueLen; got != 1 {
		t.Fatalf("queue length before Stop = %d, want 1", got)
	}
	a.Stop()
	if got := a.Stats().QueueLen; got != 0 {
		t.Errorf("queue length after Stop = %d, want drained", got)
	}
	hosts := as.agg.Hosts()
	if len(hosts) != 1 || hosts[0].Host != "esx-h" {
		t.Fatalf("aggregator hosts after Stop drain: %+v", hosts)
	}
	if got := as.agg.ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(reg)) {
		t.Error("drained capture diverged from the registry")
	}

	// And with the loop running: a capture enqueued while the flusher is
	// live (the final tick's, in the race Stop exists to close) is on the
	// aggregator by the time Stop returns, whichever side delivered it.
	las := newAggServer(t, AggregatorConfig{})
	lreg := makeRegistry(10, 1, 2, 250)
	live := NewAgent(lreg, AgentConfig{Host: "esx-live", Endpoint: las.pushURL(), Interval: 5 * time.Millisecond})
	live.Start()
	deadline := time.Now().Add(2 * time.Second)
	for live.Stats().Pushes < 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	feed(lreg.List()[0], 4242, 60)
	live.enqueue(live.buildBatch())
	live.Stop()
	if got := las.agg.ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(lreg)) {
		t.Error("capture enqueued before Stop did not reach the aggregator")
	}
}

// TestAgentStopDrainHonorsBackoffGate: an aggregator that was already
// failing is not hammered on the way out — Stop's drain respects the
// backoff gate, returns promptly, and leaves the undeliverable capture
// counted rather than retried forever.
func TestAgentStopDrainHonorsBackoffGate(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{})
	as.refuse.Store(true)
	reg := makeRegistry(9, 1, 1, 100)
	a := NewAgent(reg, AgentConfig{Host: "esx-i", Endpoint: as.pushURL()})

	// One failed push arms the backoff gate.
	if err := a.PushNow(); err == nil {
		t.Fatal("push succeeded against a refusing aggregator")
	}
	before := as.requests.Load()
	a.enqueue(a.buildBatch())
	done := make(chan struct{})
	go func() { a.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung draining against a gated endpoint")
	}
	if got := as.requests.Load(); got != before {
		t.Errorf("gated drain still hit the server: %d -> %d requests", before, got)
	}
}

// TestAgentIdleIntervalIsHeartbeat pins the idle-agent rule: a capture
// with nothing changed since the acknowledged base goes out as a
// heartbeat, which the aggregator takes as a duplicate — no delta
// applied, no segment-log append, no new sequence, and the merge cache
// stays valid.
func TestAgentIdleIntervalIsHeartbeat(t *testing.T) {
	g, _, err := OpenAggregator(logAggConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv := httptest.NewServer(g)
	defer srv.Close()
	reg := makeRegistry(12, 1, 2, 150)
	a := NewAgent(reg, AgentConfig{Host: "esx-quiet", Endpoint: srv.URL + "/fleet/push"})

	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	g.ClusterSnapshot(false) // fill the merge cache
	before, logBefore, hostsBefore := g.Stats(), g.LogStats(), g.Hosts()
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	after, logAfter, hosts := g.Stats(), g.LogStats(), g.Hosts()
	if after.DeltasApplied != before.DeltasApplied || logAfter.Appends != logBefore.Appends {
		t.Errorf("idle push applied %d deltas and appended %d frames, want none",
			after.DeltasApplied-before.DeltasApplied, logAfter.Appends-logBefore.Appends)
	}
	if len(hosts) != 1 || hosts[0].Seq != hostsBefore[0].Seq {
		t.Errorf("idle push moved the host's seq: %+v -> %+v", hostsBefore, hosts)
	}
	if after.Duplicates != before.Duplicates+1 {
		t.Errorf("duplicates %d -> %d, want one heartbeat", before.Duplicates, after.Duplicates)
	}
	if st := a.Stats(); st.Pushes != 2 || st.DeltaPushes != 0 {
		t.Errorf("agent stats %+v, want 2 pushes and no delta", st)
	}
	misses := after.MergeCacheMisses
	if got := g.ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(reg)) {
		t.Error("aggregator view diverged from the registry")
	}
	if g.Stats().MergeCacheMisses != misses {
		t.Error("idle push invalidated the merge cache")
	}
}
