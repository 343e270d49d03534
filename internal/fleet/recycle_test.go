package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
)

// storedState returns the snapshots the aggregator holds for host.
func storedState(g *Aggregator, host string) []*core.Snapshot {
	sh := g.shardOf(host)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if st := sh.hosts[host]; st != nil {
		return st.snaps
	}
	return nil
}

func sameStates(a, b []*core.Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].VM != b[i].VM || a[i].Disk != b[i].Disk || !a[i].StateEquals(b[i]) {
			return false
		}
	}
	return true
}

// faultRT is an in-process transport in front of a swappable aggregator.
// It answers each push as the seeded schedule says — 500 without applying
// it, or through the aggregator — and after every 200 checks the host state
// against the registry capture taken with that frame's content.
type faultRT struct {
	t   *testing.T
	rng *rand.Rand

	mu     sync.Mutex
	g      *Aggregator
	want   map[uint64][]*core.Snapshot // a fresh capture per sequence number
	acks   int
	faults bool // draw 500s and restarts from rng
}

func (rt *faultRT) RoundTrip(r *http.Request) (*http.Response, error) {
	body, _ := io.ReadAll(r.Body)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	reply := func(code int) (*http.Response, error) {
		return &http.Response{StatusCode: code, Status: http.StatusText(code), Body: http.NoBody, Request: r}, nil
	}
	if rt.faults {
		switch rt.rng.Intn(10) {
		case 0:
			return reply(http.StatusInternalServerError)
		case 1: // the aggregator restarted and lost every host
			rt.g = NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
		}
	}
	rec := httptest.NewRecorder()
	r.Body = io.NopCloser(bytes.NewReader(body))
	rt.g.ServeHTTP(rec, r)
	if rec.Code == http.StatusOK {
		b, err := DecodeBatch(bytes.NewReader(body))
		if err != nil {
			rt.t.Fatal(err)
		}
		// A heartbeat carries its base's number, whose state it confirms.
		if want := rt.want[b.Seq]; !sameStates(storedState(rt.g, b.Host), want) {
			rt.t.Errorf("after the ack of %s seq %d the aggregator holds other state than its capture", b.kind(), b.Seq)
		}
		rt.acks++
	}
	return reply(rec.Code)
}

// TestAgentRecyclesOnlyReleasedCaptures runs an agent whose pushes meet
// 500s and aggregator restarts (a 409 and a full resync) while a second
// goroutine captures into whatever the deliveries released: after every
// ack the aggregator holds exactly the state the frame was captured from,
// and no queued frame's bytes ever change — no capture wrote into a set a
// frame, the queue or the base still held.
func TestAgentRecyclesOnlyReleasedCaptures(t *testing.T) {
	reg := makeRegistry(4, 2, 2, 40)
	rt := &faultRT{t: t, rng: rand.New(rand.NewSource(3)), g: NewAggregator(AggregatorConfig{StaleAfter: time.Hour}),
		want: make(map[uint64][]*core.Snapshot), faults: true}
	a := NewAgent(reg, AgentConfig{Host: "esx-recycle", Endpoint: "http://agg/fleet/push",
		MaxRetryQueue: 4, Client: &http.Client{Transport: rt}})

	var encMu sync.Mutex
	enc := make(map[uint64][]byte) // each capture's bytes as enqueued
	capture := func(rng *rand.Rand) {
		for _, col := range reg.List() {
			if rng.Intn(3) == 0 { // some intervals change nothing: heartbeats
				feed(col, rng.Intn(1000), 1+rng.Intn(5))
			}
		}
		f := a.buildBatch()
		rt.mu.Lock()
		rt.want[f.Seq] = reg.Snapshots()
		rt.mu.Unlock()
		body, err := EncodeBatchBytes(f)
		if err != nil {
			t.Error(err)
		}
		encMu.Lock()
		enc[f.Seq] = body
		encMu.Unlock()
		a.enqueue(f)
	}
	checkQueue := func() {
		a.mu.Lock()
		queued := append([]*Batch(nil), a.queue...)
		a.mu.Unlock()
		for _, f := range queued {
			body, err := EncodeBatchBytes(f)
			encMu.Lock()
			want := enc[f.Seq]
			encMu.Unlock()
			if err != nil || !bytes.Equal(body, want) {
				t.Errorf("queued capture seq %d changed after it was enqueued", f.Seq)
			}
		}
	}
	flushNow := func() {
		a.mu.Lock()
		a.notUntil = time.Time{}
		a.mu.Unlock()
		a.flush(time.Now())
	}

	// Deterministic rounds: several captures queue up between flushes.
	rng := rand.New(rand.NewSource(5))
	for range 40 {
		for range 1 + rng.Intn(3) {
			capture(rng)
		}
		flushNow()
		checkQueue()
	}
	// Concurrent rounds: the builder captures into released sets while the
	// flusher delivers and releases them.
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(9))
		for range 150 {
			capture(rng)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		flushNow()
		checkQueue()
	}
	rt.mu.Lock()
	rt.faults = false
	rt.mu.Unlock()
	capture(rng)
	flushNow()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !sameStates(storedState(rt.g, "esx-recycle"), reg.Snapshots()) {
		t.Error("the final state delivered differs from the registry's")
	}
	if st := a.Stats(); rt.acks < 50 || st.Resyncs == 0 || st.Errors == 0 || st.Heartbeats == 0 {
		t.Errorf("the schedule missed a path: %d acks, stats %+v", rt.acks, st)
	}
}

// okRT answers every request 200 with an empty body.
type okRT struct{}

func (okRT) RoundTrip(r *http.Request) (*http.Response, error) {
	io.Copy(io.Discard, r.Body)
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Body: http.NoBody, Request: r}, nil
}

// TestPushRoundAllocsFlat is the allocation fence on the leaf's round: in
// steady state a capture, its delta rendering and its delivery allocate as
// often for 16 disks as for one — no allocation per disk.
func TestPushRoundAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := func(disks int) float64 {
		reg := makeRegistry(2, 1, disks, 20)
		a := NewAgent(reg, AgentConfig{Host: "esx-fence", Endpoint: "http://agg/fleet/push", Client: &http.Client{Transport: okRT{}}})
		cols := reg.List()
		round := func() {
			for i, col := range cols {
				feed(col, i, 1)
			}
			if err := a.PushNow(); err != nil {
				t.Fatal(err)
			}
		}
		round() // the full push
		round() // the first delta releases the full capture
		return testing.AllocsPerRun(50, round)
	}
	if one, many := allocs(1), allocs(16); one != many {
		t.Errorf("a push round allocates %v times for 1 disk and %v for 16", one, many)
	}
}

// TestMergeComputesOnlyTheViewRead: a cluster read fills only the shards'
// cluster memos and a per-VM read only their per-VM memos, and each view
// equals a merge from scratch.
func TestMergeComputesOnlyTheViewRead(t *testing.T) {
	var all []*core.Snapshot
	aggs := [2]*Aggregator{}
	for i := range aggs {
		aggs[i] = NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 4})
	}
	for h := range 6 {
		reg := makeRegistry(h, 2, 2, 60)
		for _, g := range aggs {
			pushFull(t, g, fmt.Sprintf("esx-%d", h), 1, reg)
		}
		all = append(all, reg.Snapshots()...)
	}
	wantCluster, wantVMs := mergeSnaps(all)

	byCluster, byVMs := aggs[0], aggs[1]
	if !sameSnapshot(byCluster.ClusterSnapshot(false), wantCluster) {
		t.Error("cluster merge differs from a merge from scratch")
	}
	vms := byVMs.VMSnapshots(false)
	if len(vms) != len(wantVMs) {
		t.Fatalf("%d per-VM merges, want %d", len(vms), len(wantVMs))
	}
	for i := range vms {
		if vms[i].VM != wantVMs[i].VM || !sameSnapshot(vms[i], wantVMs[i]) {
			t.Errorf("per-VM merge %q differs from a merge from scratch", wantVMs[i].VM)
		}
	}
	var clusters, perVM int
	for i := range byCluster.shards {
		if byCluster.shards[i].vms.valid || byVMs.shards[i].cluster.valid {
			t.Errorf("shard %d computed a view nobody read", i)
		}
		if byCluster.shards[i].cluster.valid {
			clusters++
		}
		if byVMs.shards[i].vms.valid {
			perVM++
		}
	}
	if clusters < 2 || perVM < 2 {
		t.Errorf("%d cluster and %d per-VM memos filled; want the views read memoized", clusters, perVM)
	}
}

// TestPushAckMatchesWriteJSON pins the push reply byte for byte to what
// telemetry.WriteJSON writes for the same fields, for host names that need
// every kind of escape.
func TestPushAckMatchesWriteJSON(t *testing.T) {
	hosts := []string{"esx-01", `say "hi"\now`, "<script>&amp;</script>", "hôte-主机-🖥",
		"ctl\x00\x01\x1f\b\f\n\r\t\x7f", "bad\xff\xfe\xc3utf8", "line\u2028para\u2029", strings.Repeat("ü", 40)}
	for _, host := range hosts {
		for _, n := range [][2]uint64{{0, 0}, {7, 3}, {math.MaxUint64, math.MaxInt32}} {
			want := httptest.NewRecorder()
			telemetry.WriteJSON(want, map[string]any{"host": host, "seq": n[0], "snapshots": int(n[1])})
			got := httptest.NewRecorder()
			writePushAck(got, host, n[0], int(n[1]))
			if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
				!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("host %q seq %d: ack\n%q\nwant\n%q", host, n[0], got.Body.Bytes(), want.Body.Bytes())
			}
		}
	}
}
