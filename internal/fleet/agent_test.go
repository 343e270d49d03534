package fleet

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vscsistats/internal/core"
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

// TestAgentPushesAddUpToTheSnapshot is the push protocol's interval law
// seen from the receiving end: a receiver that folds every frame the agent
// delivers — a full frame replaces its state, a delta is applied disk by
// disk with ApplyDelta, a heartbeat changes nothing — holds, after every
// acknowledged push, exactly the registry's capture. It covers heartbeats,
// a 409 that makes the agent resync, and disks attached mid-run, before
// and among the others in (VM, disk) order.
func TestAgentPushesAddUpToTheSnapshot(t *testing.T) {
	var (
		mu       sync.Mutex
		state    []*core.Snapshot
		kinds    = map[string]int{}
		conflict bool // answer the next delta 409, unapplied
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := DecodeBatch(r.Body)
		if err != nil {
			t.Errorf("receiver: %v", err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if b.Delta && conflict {
			conflict = false
			kinds["conflict"]++
			http.Error(w, "base lost", http.StatusConflict)
			return
		}
		kinds[b.kind()]++
		if !b.Delta {
			state = b.Snapshots
			return
		}
		for _, d := range b.Snapshots {
			i := slices.IndexFunc(state, func(s *core.Snapshot) bool { return s.VM == d.VM && s.Disk == d.Disk })
			if i < 0 {
				t.Errorf("receiver: delta for %s/%s it holds no state for", d.VM, d.Disk)
				continue
			}
			state[i] = state[i].ApplyDelta(d)
		}
	}))
	defer srv.Close()

	reg := makeRegistry(1, 2, 2, 100)
	a := NewAgent(reg, AgentConfig{Host: "esx-law", Endpoint: srv.URL})
	attach := func(vm, disk string, seed int) {
		c := core.NewCollector(vm, disk)
		c.Enable()
		feed(c, seed, 40)
		reg.Register(c)
	}
	steps := []struct {
		name   string
		before func()
		kind   string // the kind the receiver must have counted one more of
	}{
		{"first push", func() {}, "full"},
		{"traffic on one disk", func() { feed(reg.List()[1], 71, 30) }, "delta"},
		{"heartbeat", func() {}, "heartbeat"},
		{"traffic on two disks", func() { feed(reg.List()[0], 72, 10); feed(reg.List()[3], 73, 10) }, "delta"},
		{"409 resync", func() { feed(reg.List()[2], 74, 20); conflict = true }, "full"},
		{"after the resync", func() { feed(reg.List()[2], 75, 20) }, "delta"},
		{"disk attached first", func() { attach("vma0", "scsi0:0", 76) }, "full"},
		{"disk attached among the others", func() { attach(reg.List()[1].VM(), "scsi0:10", 77) }, "full"},
		{"traffic on the new disks", func() { feed(reg.List()[0], 78, 10); feed(reg.List()[2], 79, 10) }, "delta"},
		{"heartbeat again", func() {}, "heartbeat"},
	}
	for _, st := range steps {
		mu.Lock()
		st.before()
		was := kinds[st.kind]
		mu.Unlock()
		if err := a.PushNow(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want := reg.Snapshots()
		mu.Lock()
		if kinds[st.kind] != was+1 {
			t.Errorf("%s: receiver counted %v, want one more %s", st.name, kinds, st.kind)
		}
		if len(state) != len(want) {
			t.Fatalf("%s: receiver folded %d disks, registry has %d", st.name, len(state), len(want))
		}
		for i := range want {
			if state[i].VM != want[i].VM || state[i].Disk != want[i].Disk || !state[i].StateEquals(want[i]) {
				t.Errorf("%s: disk %d (%s/%s) folded differs from the capture", st.name, i, want[i].VM, want[i].Disk)
			}
		}
		mu.Unlock()
	}
	if kinds["conflict"] != 1 {
		t.Errorf("receiver answered %d deltas 409, want 1", kinds["conflict"])
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
