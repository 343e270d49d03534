package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// pushFull ingests reg's current state as a full batch for host at seq.
func pushFull(t *testing.T, g *Aggregator, host string, seq uint64, reg *core.Registry) {
	t.Helper()
	err := g.Ingest(&Batch{Host: host, Seq: seq, Snapshots: reg.Snapshots()}, "push")
	if err != nil {
		t.Fatalf("full ingest seq %d: %v", seq, err)
	}
}

// deltaBatch builds the wire delta from base to cur (both full snapshot
// slices of the same registry).
func deltaBatch(t *testing.T, host string, seq, baseSeq uint64, base, cur []*core.Snapshot) *Batch {
	t.Helper()
	deltas, ok := new(chain).subAgainst(cur, base)
	if !ok {
		t.Fatal("disk sets diverged between base and cur")
	}
	return &Batch{Host: host, Seq: seq, BaseSeq: baseSeq, Delta: true, Snapshots: deltas}
}

// TestDeltaChainReassemblesExactly is the core delta-protocol property: a
// full push followed by a chain of interval deltas leaves the aggregator
// holding exactly the registry's final state — bin for bin, every metric,
// every class — indistinguishable from one big full push.
func TestDeltaChainReassemblesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 4})
	reg := makeRegistry(1, 2, 2, 200)
	cols := reg.List()

	base := reg.Snapshots()
	pushFull(t, g, "esx-a", 1, reg)
	for seq := uint64(2); seq <= 12; seq++ {
		// Touch a random subset of disks; untouched ones exercise the
		// omit-unchanged path.
		for _, col := range cols {
			if rng.Intn(2) == 0 {
				feed(col, int(seq)*13+rng.Intn(50), 30+rng.Intn(100))
			}
		}
		cur := reg.Snapshots()
		if err := g.Ingest(deltaBatch(t, "esx-a", seq, seq-1, base, cur), "push"); err != nil {
			t.Fatalf("delta ingest seq %d: %v", seq, err)
		}
		base = cur
	}

	want := hostSnapshot(reg)
	if got := g.ClusterSnapshot(false); !sameSnapshot(got, want) {
		t.Error("delta-reassembled cluster state diverged from the registry")
	}
	st := g.Stats()
	if st.DeltasApplied != 11 || st.Resyncs != 0 {
		t.Errorf("deltas applied/resyncs = %d/%d, want 11/0", st.DeltasApplied, st.Resyncs)
	}
}

// TestDeltaSeqGapForcesResync pins the gap rule: a delta whose base is not
// exactly the stored sequence is refused with ErrResyncRequired — applying
// it would silently double or drop an interval.
func TestDeltaSeqGapForcesResync(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	reg := makeRegistry(2, 1, 1, 100)
	base := reg.Snapshots()
	pushFull(t, g, "esx-b", 1, reg)

	feed(reg.List()[0], 900, 50)
	mid := reg.Snapshots()
	feed(reg.List()[0], 901, 50)
	cur := reg.Snapshots()

	// The seq-2 delta is lost; seq 3 arrives building on 2.
	err := g.Ingest(deltaBatch(t, "esx-b", 3, 2, mid, cur), "push")
	if err == nil || !errorsIsResync(err) {
		t.Fatalf("gap delta: err = %v, want ErrResyncRequired", err)
	}
	// State is untouched by the refused delta.
	if got := g.ClusterSnapshot(false); !sameSnapshot(got, core.Aggregate("cluster", "*", base...)) {
		t.Error("refused delta mutated stored state")
	}
	// The in-order delta still applies afterwards.
	if err := g.Ingest(deltaBatch(t, "esx-b", 2, 1, base, mid), "push"); err != nil {
		t.Fatalf("in-order delta after refused gap: %v", err)
	}
	if g.Stats().Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", g.Stats().Resyncs)
	}
}

// TestDeltaUnknownHostForcesResync pins the restart rule: a delta for a
// host the aggregator has no state for (it restarted and lost everything)
// is a resync condition, and the HTTP surface maps it to 409.
func TestDeltaUnknownHostForcesResync(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	reg := makeRegistry(3, 1, 1, 100)
	base := reg.Snapshots()
	feed(reg.List()[0], 77, 50)

	b := deltaBatch(t, "esx-c", 2, 1, base, reg.Snapshots())
	if err := g.Ingest(b, "push"); err == nil || !errorsIsResync(err) {
		t.Fatalf("delta for unknown host: err = %v, want ErrResyncRequired", err)
	}

	srv := httptest.NewServer(g)
	defer srv.Close()
	body, err := EncodeBatchBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytesReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("push of unappliable delta: status %d, want 409", resp.StatusCode)
	}
}

// TestDeltaDuplicateDeliveryIdempotent pins retry safety: redelivering an
// already-applied delta (its ack was lost in flight) refreshes liveness and
// changes nothing else — the interval is not folded in twice.
func TestDeltaDuplicateDeliveryIdempotent(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	reg := makeRegistry(4, 1, 2, 150)
	base := reg.Snapshots()
	pushFull(t, g, "esx-d", 1, reg)
	feed(reg.List()[0], 31, 80)
	cur := reg.Snapshots()

	d := deltaBatch(t, "esx-d", 2, 1, base, cur)
	for i := 0; i < 3; i++ {
		if err := g.Ingest(d, "push"); err != nil {
			t.Fatalf("delivery %d of the same delta: %v", i+1, err)
		}
	}
	want := core.Aggregate("cluster", "*", cur...)
	if got := g.ClusterSnapshot(false); !sameSnapshot(got, want) {
		t.Error("duplicate delta delivery changed stored state")
	}
	st := g.Stats()
	if st.DeltasApplied != 1 || st.Duplicates != 2 {
		t.Errorf("applied/duplicates = %d/%d, want 1/2", st.DeltasApplied, st.Duplicates)
	}
}

// TestShardedMergeMatchesMonolithic is the two-level-merge exactness
// property: the same batches fed to an 8-shard aggregator and to a
// one-shard one produce bin-identical cluster and per-VM views, and on
// each the memoized merge (includeStale=false) equals the recomputed one
// (includeStale=true takes the uncached path; every host is fresh, so the
// two cover the same hosts).
func TestShardedMergeMatchesMonolithic(t *testing.T) {
	sharded := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 8})
	mono := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 1})
	for i := 0; i < 12; i++ {
		reg := makeRegistry(i, 2, 2, 100+i*20)
		b := &Batch{Host: "esx-" + string(rune('a'+i)), Seq: 1, Snapshots: reg.Snapshots()}
		for _, g := range []*Aggregator{sharded, mono} {
			if err := g.Ingest(b, "push"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sameSnapshot(sharded.ClusterSnapshot(false), mono.ClusterSnapshot(false)) {
		t.Error("sharded cluster merge diverged from monolithic")
	}
	sv, mv := sharded.VMSnapshots(false), mono.VMSnapshots(false)
	if len(sv) != len(mv) {
		t.Fatalf("per-VM merge count: sharded %d, mono %d", len(sv), len(mv))
	}
	for i := range sv {
		if sv[i].VM != mv[i].VM || !sameSnapshot(sv[i], mv[i]) {
			t.Errorf("per-VM merge %q diverged between sharded and monolithic", mv[i].VM)
		}
	}
	for name, g := range map[string]*Aggregator{"sharded": sharded, "mono": mono} {
		g.ClusterSnapshot(false) // second scrape: served from the cache
		if !sameSnapshot(g.ClusterSnapshot(false), g.ClusterSnapshot(true)) {
			t.Errorf("%s: cached cluster merge diverged from the recomputed one", name)
		}
		if g.Stats().MergeCacheHits == 0 {
			t.Errorf("%s: repeated scrapes never hit the merge cache", name)
		}
	}
	// The 12 hosts actually spread across shards — the hash isn't degenerate.
	var populated int
	for _, s := range sharded.Shards() {
		if s.Hosts > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("12 hosts landed on %d of 8 shards", populated)
	}
}

// TestMergeCacheHitsAndInvalidation pins the memoization contract: repeated
// scrapes of an unchanged shard hit the cache, any ingest invalidates it,
// and the cached view stays bin-exact with a cold merge.
func TestMergeCacheHitsAndInvalidation(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 2})
	reg := makeRegistry(5, 2, 1, 200)
	pushFull(t, g, "esx-e", 1, reg)

	first := g.ClusterSnapshot(false)
	for i := 0; i < 5; i++ {
		if got := g.ClusterSnapshot(false); !sameSnapshot(got, first) {
			t.Fatal("cached scrape diverged")
		}
	}
	st := g.Stats()
	if st.MergeCacheHits < 4 {
		t.Errorf("merge cache hits = %d after 6 identical scrapes, want >= 4", st.MergeCacheHits)
	}
	missesBefore := st.MergeCacheMisses

	// New state must invalidate: the next scrape re-merges and sees it.
	feed(reg.List()[0], 123, 60)
	pushFull(t, g, "esx-e", 2, reg)
	want := hostSnapshot(reg)
	if got := g.ClusterSnapshot(false); !sameSnapshot(got, want) {
		t.Error("scrape after ingest returned stale cached state")
	}
	if g.Stats().MergeCacheMisses <= missesBefore {
		t.Error("ingest did not invalidate the merge cache")
	}
}

// TestAgentDeltaPushesEndToEnd drives the real agent against a real
// aggregator over HTTP: after the first full push every quiet interval goes
// out as a (much smaller) delta, and the aggregator's view tracks the
// registry exactly the whole way.
func TestAgentDeltaPushesEndToEnd(t *testing.T) {
	as := newAggServer(t, AggregatorConfig{StaleAfter: time.Hour})
	reg := makeRegistry(6, 2, 2, 300)
	a := NewAgent(reg, AgentConfig{Host: "esx-f", Endpoint: as.pushURL()})

	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		feed(reg.List()[i%len(reg.List())], 500+i, 40)
		if err := a.PushNow(); err != nil {
			t.Fatalf("push %d: %v", i+2, err)
		}
		if got := as.agg.ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(reg)) {
			t.Fatalf("aggregator view diverged from registry after push %d", i+2)
		}
	}
	st := a.Stats()
	if st.DeltaPushes != 6 {
		t.Errorf("delta pushes = %d, want 6 (every push after the first)", st.DeltaPushes)
	}
	if st.Resyncs != 0 || as.failures.Load() != 0 {
		t.Errorf("healthy delta chain saw resyncs=%d, http failures=%d", st.Resyncs, as.failures.Load())
	}
	if as.agg.Stats().DeltasApplied != 6 {
		t.Errorf("aggregator applied %d deltas, want 6", as.agg.Stats().DeltasApplied)
	}
}

// TestAgentResyncsAfterAggregatorRestart is the recovery path end to end:
// the aggregator process is replaced mid-chain (all state lost), the
// agent's next delta gets a 409, and the very same PushNow call recovers by
// re-sending full state — callers never see the hiccup.
func TestAgentResyncsAfterAggregatorRestart(t *testing.T) {
	var agg atomic.Pointer[Aggregator]
	agg.Store(NewAggregator(AggregatorConfig{StaleAfter: time.Hour}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		agg.Load().ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := makeRegistry(7, 1, 2, 200)
	a := NewAgent(reg, AgentConfig{Host: "esx-g", Endpoint: srv.URL + "/fleet/push"})
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	feed(reg.List()[0], 800, 50)
	if err := a.PushNow(); err != nil { // establishes the delta chain
		t.Fatal(err)
	}

	// Restart: a brand-new aggregator with no memory of esx-g.
	agg.Store(NewAggregator(AggregatorConfig{StaleAfter: time.Hour}))
	feed(reg.List()[1], 801, 50)
	if err := a.PushNow(); err != nil {
		t.Fatalf("push across aggregator restart: %v", err)
	}
	if got := agg.Load().ClusterSnapshot(false); !sameSnapshot(got, hostSnapshot(reg)) {
		t.Error("post-restart state diverged from the registry")
	}
	st := a.Stats()
	if st.Resyncs != 1 {
		t.Errorf("agent resyncs = %d, want 1", st.Resyncs)
	}
	// The chain re-established: the next push is a delta again.
	feed(reg.List()[0], 802, 50)
	if err := a.PushNow(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().DeltaPushes; got != st.DeltaPushes+1 {
		t.Errorf("delta chain not re-established after resync: %d -> %d delta pushes", st.DeltaPushes, got)
	}
}

// TestAgentBuildBatchNeverBlocksOnSlowAggregator pins the builder/flusher
// split: with a push stuck in flight against a hung aggregator, the ticker
// keeps capturing — the capture sequence advances while the network does
// not. (Before the split, capture and delivery shared one lock and one
// goroutine, so a hung aggregator froze capture too.)
func TestAgentBuildBatchNeverBlocksOnSlowAggregator(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(inFlight) })
		<-release
		http.Error(w, "too late", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	reg := makeRegistry(8, 1, 1, 50)
	a := NewAgent(reg, AgentConfig{
		Host: "esx-h", Endpoint: srv.URL,
		Interval: 2 * time.Millisecond, Timeout: 30 * time.Second, MaxRetryQueue: 1024,
	})
	a.Start()
	defer a.Stop()
	defer close(release) // LIFO: unhang the handler before Stop waits on the flusher

	<-inFlight // one push is now hung inside the aggregator
	seqBefore := a.chain.seq.Load()
	waitFor(t, 2*time.Second, func() bool { return a.chain.seq.Load() >= seqBefore+5 })
	if st := a.Stats(); st.Pushes != 0 {
		t.Errorf("pushes completed while the aggregator was hung: %+v", st)
	}
}

// TestShardsEndpoint exercises GET /fleet/shards: the per-shard listing and
// the ?host= routing answer, which must agree with ShardFor.
func TestShardsEndpoint(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Shards: 4})
	reg := makeRegistry(11, 1, 1, 50)
	pushFull(t, g, "esx-x", 1, reg)
	srv := httptest.NewServer(g)
	defer srv.Close()

	var shards []ShardStatus
	getJSON(t, srv.URL+"/fleet/shards", &shards)
	if len(shards) != 4 {
		t.Fatalf("shards listed: %d, want 4", len(shards))
	}
	var total int
	for _, s := range shards {
		total += s.Hosts
	}
	if total != 1 {
		t.Errorf("hosts across shards = %d, want 1", total)
	}

	var route struct {
		Host   string `json:"host"`
		Shard  int    `json:"shard"`
		Shards int    `json:"shards"`
	}
	getJSON(t, srv.URL+"/fleet/shards?host=esx-x", &route)
	if route.Shard != g.ShardFor("esx-x") || route.Shards != 4 {
		t.Errorf("routing answer %+v disagrees with ShardFor=%d", route, g.ShardFor("esx-x"))
	}
	if shards[route.Shard].Hosts != 1 {
		t.Errorf("host not on its routed shard %d: %+v", route.Shard, shards)
	}
}

// --- small helpers ---

func errorsIsResync(err error) bool { return errorsIs(err, ErrResyncRequired) }

// errorsIs avoids importing errors twice in editors that fold imports; it
// is just errors.Is.
func errorsIs(err, target error) bool { return errors.Is(err, target) }

func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// getJSON fetches url and decodes the JSON body into v, failing the test on
// any error or non-200.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
