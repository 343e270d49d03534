package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// fakeClock gives the aggregator a deterministic wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestAggregator(stale time.Duration) (*Aggregator, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	agg := NewAggregator(AggregatorConfig{StaleAfter: stale})
	agg.now = clk.now
	return agg, clk
}

func batchFor(reg *core.Registry, host string, seq uint64) *Batch {
	return &Batch{Host: host, Seq: seq, SentUnixNano: int64(seq), Snapshots: reg.Snapshots()}
}

func TestAggregatorSeqNeverRollsBack(t *testing.T) {
	agg, _ := newTestAggregator(time.Minute)
	newer := makeRegistry(1, 1, 1, 400)
	older := makeRegistry(1, 1, 1, 100)

	if err := agg.Ingest(batchFor(newer, "esx-a", 5), "push"); err != nil {
		t.Fatal(err)
	}
	// A late retry of an older batch refreshes liveness but must not
	// replace the newer snapshots.
	if err := agg.Ingest(batchFor(older, "esx-a", 3), "push"); err != nil {
		t.Fatal(err)
	}
	hosts := agg.Hosts()
	if len(hosts) != 1 || hosts[0].Seq != 5 || hosts[0].Batches != 2 {
		t.Fatalf("hosts after late retry: %+v", hosts)
	}
	if got, want := agg.ClusterSnapshot(false), hostSnapshot(newer); !sameSnapshot(got, want) {
		t.Error("late retry rolled host state back to the older batch")
	}
	// Equal sequence is a refresh, not a rollback.
	if err := agg.Ingest(batchFor(older, "esx-a", 5), "push"); err != nil {
		t.Fatal(err)
	}
	if got, want := agg.ClusterSnapshot(false), hostSnapshot(older); !sameSnapshot(got, want) {
		t.Error("equal-seq batch did not refresh the stored snapshots")
	}
}

func TestAggregatorStalenessWithInjectedClock(t *testing.T) {
	agg, clk := newTestAggregator(10 * time.Second)
	regA := makeRegistry(1, 1, 1, 200)
	regB := makeRegistry(2, 1, 1, 300)
	agg.Ingest(batchFor(regA, "esx-a", 1), "push")
	clk.advance(7 * time.Second)
	agg.Ingest(batchFor(regB, "esx-b", 1), "push")

	hosts := agg.Hosts()
	if hosts[0].Stale || hosts[1].Stale {
		t.Fatalf("nothing should be stale yet: %+v", hosts)
	}
	both := core.Aggregate("cluster", "*", append(regA.Snapshots(), regB.Snapshots()...)...)
	if !sameSnapshot(agg.ClusterSnapshot(false), both) {
		t.Fatal("fresh cluster view is not the sum of both hosts")
	}

	// 7+4 = 11s > 10s: esx-a ages out, esx-b (4s old) stays.
	clk.advance(4 * time.Second)
	hosts = agg.Hosts()
	if !hosts[0].Stale || hosts[1].Stale {
		t.Fatalf("expected only esx-a stale: %+v", hosts)
	}
	if st := agg.Stats(); st.Hosts != 2 || st.StaleHosts != 1 {
		t.Errorf("stats: %+v", st)
	}
	if !sameSnapshot(agg.ClusterSnapshot(false), hostSnapshot(regB)) {
		t.Error("stale host still contributes to the merged view")
	}
	if !sameSnapshot(agg.ClusterSnapshot(true), both) {
		t.Error("include_stale view lost the stale host")
	}

	// A fresh batch revives the host.
	agg.Ingest(batchFor(regA, "esx-a", 2), "push")
	if hosts = agg.Hosts(); hosts[0].Stale {
		t.Errorf("host still stale after a fresh batch: %+v", hosts[0])
	}
}

func TestAggregatorVMSnapshotsMergeAcrossHosts(t *testing.T) {
	agg, _ := newTestAggregator(time.Minute)
	// Two hosts run disks of the same VMs (vmb0, vmb1): the per-VM view
	// must merge across hosts, exactly like one registry holding them all.
	regA := makeRegistry(1, 2, 2, 200)
	regB := makeRegistry(1, 2, 2, 350)
	agg.Ingest(batchFor(regA, "esx-a", 1), "push")
	agg.Ingest(batchFor(regB, "esx-b", 1), "push")

	got := agg.VMSnapshots(false)
	if len(got) != 2 {
		t.Fatalf("per-VM views: %d, want 2", len(got))
	}
	all := append(regA.Snapshots(), regB.Snapshots()...)
	for _, vs := range got {
		var mine []*core.Snapshot
		for _, s := range all {
			if s.VM == vs.VM {
				mine = append(mine, s)
			}
		}
		want := core.Aggregate(vs.VM, "*", mine...)
		if !sameSnapshot(vs, want) {
			t.Errorf("per-VM merge for %s not bin-exact", vs.VM)
		}
	}
}

func TestAggregatorHTTPSurface(t *testing.T) {
	agg, clk := newTestAggregator(10 * time.Second)
	reg := makeRegistry(1, 2, 1, 250)
	srv := httptest.NewServer(agg)
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Before any host reports, the cluster snapshot is a 409, not a panic
	// or an empty object.
	resp, _ := get("/fleet/snapshot")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("snapshot with no hosts: %d, want 409", resp.StatusCode)
	}

	// Push a frame the way an agent would.
	frame, err := EncodeBatchBytes(batchFor(reg, "esx-a", 1))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("push: %d", presp.StatusCode)
	}

	resp, body := get("/fleet/hosts")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("hosts: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var hosts []HostStatus
	if err := json.Unmarshal(body, &hosts); err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 1 || hosts[0].Host != "esx-a" || hosts[0].Source != "push" || hosts[0].Stale {
		t.Fatalf("hosts body: %+v", hosts)
	}

	resp, body = get("/fleet/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	var snap core.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if want := hostSnapshot(reg); !sameSnapshot(&snap, want) {
		t.Error("served cluster snapshot not bin-exact")
	}

	// Per-VM views and the single-VM filter.
	resp, body = get("/fleet/snapshot?view=vms")
	var vms []core.Snapshot
	if err := json.Unmarshal(body, &vms); err != nil {
		t.Fatal(err)
	}
	if len(vms) != 2 {
		t.Fatalf("view=vms returned %d VMs, want 2", len(vms))
	}
	resp, body = get("/fleet/snapshot?vm=" + vms[0].VM)
	var one core.Snapshot
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(&one, &vms[0]) {
		t.Error("?vm= filter diverged from view=vms")
	}
	if resp, _ = get("/fleet/snapshot?vm=no-such-vm"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown vm: %d, want 404", resp.StatusCode)
	}

	// Staleness over HTTP: age the host out, 409 again, then
	// include_stale=1 brings it back.
	clk.advance(11 * time.Second)
	if resp, _ = get("/fleet/snapshot"); resp.StatusCode != http.StatusConflict {
		t.Errorf("all-stale snapshot: %d, want 409", resp.StatusCode)
	}
	resp, body = get("/fleet/snapshot?include_stale=1")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("include_stale snapshot: %d", resp.StatusCode)
	}

	// Every route answers every method as one table: a 405 names the one
	// method its route takes, an unknown route is a 404 whatever the
	// method, and so are the observability routes while Obs is unset.
	obsSrv := httptest.NewServer(NewAggregator(AggregatorConfig{Obs: fleetobs.New(fleetobs.Config{})}))
	defer obsSrv.Close()
	for _, tc := range []struct {
		srv            *httptest.Server
		route          string
		get, post, put int
		allow          string // on the 405s
	}{
		{srv, "hosts", 200, 405, 405, http.MethodGet},
		{srv, "snapshot", 409, 405, 405, http.MethodGet},
		{srv, "shards", 200, 405, 405, http.MethodGet},
		{srv, "history", 404, 405, 405, http.MethodGet}, // no segment log
		{srv, "catalog", 404, 405, 405, http.MethodGet}, // no catalog installed
		{srv, "log", 200, 405, 405, http.MethodGet},
		{srv, "push", 405, 400, 405, http.MethodPost},
		{srv, "events", 404, 404, 404, ""},
		{srv, "slow", 404, 404, 404, ""},
		{srv, "nope", 404, 404, 404, ""},
		{obsSrv, "events", 200, 405, 405, http.MethodGet},
		{obsSrv, "slow", 200, 405, 405, http.MethodGet},
		{obsSrv, "nope", 404, 404, 404, ""},
	} {
		for _, m := range []struct {
			method string
			want   int
		}{{http.MethodGet, tc.get}, {http.MethodPost, tc.post}, {http.MethodPut, tc.put}} {
			req, err := http.NewRequest(m.method, tc.srv.URL+"/fleet/"+tc.route, strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			wantAllow := ""
			if m.want == http.StatusMethodNotAllowed {
				wantAllow = tc.allow
			}
			if resp.StatusCode != m.want || resp.Header.Get("Allow") != wantAllow {
				t.Errorf("%s /fleet/%s (obs %t): %d Allow=%q, want %d Allow=%q",
					m.method, tc.route, tc.srv == obsSrv, resp.StatusCode, resp.Header.Get("Allow"), m.want, wantAllow)
			}
		}
	}

	// Garbage pushes are 400s with the rejected counter bumped, and they
	// never disturb the stored state.
	before := agg.Stats()
	presp, err = http.Post(srv.URL+"/fleet/push", ContentType, strings.NewReader("not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage push: %d, want 400", presp.StatusCode)
	}
	bad := batchFor(reg, "", 2) // valid frame, invalid batch (no host)
	frame, _ = EncodeBatchBytes(bad)
	presp, err = http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid batch push: %d, want 400", presp.StatusCode)
	}
	after := agg.Stats()
	if after.Rejected != before.Rejected+2 {
		t.Errorf("rejected counter: %d -> %d, want +2 (two pushes)", before.Rejected, after.Rejected)
	}
	if after.RecvBytes != before.RecvBytes {
		t.Errorf("refused frames counted as received: %d -> %d bytes", before.RecvBytes, after.RecvBytes)
	}
	if after.Hosts != before.Hosts {
		t.Errorf("rejected frames changed the host set: %d -> %d", before.Hosts, after.Hosts)
	}
}

// chunked hides a reader's length from net/http, so the request goes out
// with Transfer-Encoding: chunked and no Content-Length.
type chunked struct{ io.Reader }

// TestPushCountsBytesReadNotContentLength pins RecvBytes to the bytes the
// decoder consumed. A chunked POST has ContentLength -1, which the old
// accounting added to the counter: every streaming sender ran it
// backwards. A refused frame counts as rejected, never as received.
func TestPushCountsBytesReadNotContentLength(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	var sawChunked atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength == -1 && len(r.TransferEncoding) == 1 && r.TransferEncoding[0] == "chunked" {
			sawChunked.Store(true)
		}
		g.ServeHTTP(w, r)
	}))
	defer srv.Close()

	reg := makeRegistry(1, 2, 2, 90)
	var frames [][]byte
	for _, host := range []string{"esx-a", "esx-b"} {
		frame, err := EncodeBatchBytes(&Batch{Host: host, Seq: 1, Snapshots: reg.Snapshots()})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	for _, frame := range frames {
		resp, err := http.Post(srv.URL+"/fleet/push", ContentType, chunked{bytes.NewReader(frame)})
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunked push: %s", resp.Status)
		}
	}
	if !sawChunked.Load() {
		t.Fatal("the test's pushes were not chunked")
	}
	st := g.Stats()
	if want := int64(len(frames[0]) + len(frames[1])); st.RecvBytes != want {
		t.Errorf("RecvBytes = %d after two chunked pushes, want the %d bytes read", st.RecvBytes, want)
	}
	if st.Batches != 2 || st.Rejected != 0 {
		t.Errorf("batches %d rejected %d, want 2 and 0", st.Batches, st.Rejected)
	}
	resp, err := http.Post(srv.URL+"/fleet/push", ContentType, chunked{bytes.NewReader(frames[0][:40])})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after := g.Stats(); resp.StatusCode != http.StatusBadRequest || after.RecvBytes != st.RecvBytes ||
		after.Batches != 2 || after.Rejected != 1 {
		t.Errorf("truncated push: %s, RecvBytes %d, batches %d, rejected %d", resp.Status, after.RecvBytes, after.Batches, after.Rejected)
	}
}
