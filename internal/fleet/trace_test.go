package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// TestTraceIDFollowsPipeline is the end-to-end observability proof: one
// push's trace ID, stamped at agent capture, is followed through wire
// decode, shard apply and segment-log append — and every stage on the
// way emitted both a ring event and a histogram sample.
func TestTraceIDFollowsPipeline(t *testing.T) {
	aggObs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	dir := t.TempDir()
	agg, _, err := OpenAggregator(AggregatorConfig{
		StaleAfter: time.Hour, DataDir: dir, SyncInterval: -1, Obs: aggObs,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(agg)
	defer srv.Close()

	agentObs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	reg := makeRegistry(3, 1, 2, 120)
	a := NewAgent(reg, AgentConfig{
		Host: "esx-trace", Endpoint: srv.URL + "/fleet/push", Obs: agentObs,
	})
	if err := a.PushNow(); err != nil {
		t.Fatalf("full push: %v", err)
	}
	feed(reg.List()[0], 5, 60)
	if err := a.PushNow(); err != nil {
		t.Fatalf("delta push: %v", err)
	}
	if st := a.Stats(); st.DeltaPushes != 1 {
		t.Fatalf("second push was not a delta: %+v", st)
	}
	if err := agg.Close(); err != nil {
		t.Fatal(err)
	}

	// The second capture's trace ID, read off its capture event.
	var traceID string
	for _, e := range agentObs.Events(0) {
		if e.Stage == "capture" && e.BatchSeq == 2 {
			traceID = e.TraceID
		}
	}
	if traceID == "" {
		t.Fatal("no capture event for batch 2 on the agent")
	}
	if !strings.HasPrefix(traceID, "esx-trace-") {
		t.Fatalf("trace ID %q does not carry the host name", traceID)
	}

	// Every stage the push crossed must have emitted an event carrying
	// the trace ID AND a histogram sample.
	checkStages := func(tr *fleetobs.Tracker, side string, stages map[string]fleetobs.Stage) {
		t.Helper()
		byStage := map[string]bool{}
		for _, e := range tr.Events(0) {
			if e.TraceID == traceID && e.Kind == fleetobs.KindStage {
				byStage[e.Stage] = true
			}
		}
		for name, st := range stages {
			if !byStage[name] {
				t.Errorf("%s: no %s event for trace %s (events: %+v)", side, name, traceID, byStage)
			}
			if got := tr.Hist(st).Total(); got < 1 {
				t.Errorf("%s: %s histogram empty", side, name)
			}
		}
	}
	checkStages(agentObs, "agent", map[string]fleetobs.Stage{
		"capture":      fleetobs.StageCapture,
		"delta_render": fleetobs.StageDeltaRender,
		"encode":       fleetobs.StageEncode,
		"push":         fleetobs.StagePush,
		"queue_dwell":  fleetobs.StageQueueDwell,
	})
	checkStages(aggObs, "aggregator", map[string]fleetobs.Stage{
		"decode":     fleetobs.StageDecode,
		"lock_wait":  fleetobs.StageLockWait,
		"ingest":     fleetobs.StageIngest,
		"log_append": fleetobs.StageLogAppend,
	})
	// The batched fsync (every append under SyncInterval -1) has no
	// per-batch trace, but must have been timed.
	if got := aggObs.Hist(fleetobs.StageFsync).Total(); got < 1 {
		t.Error("aggregator: fsync histogram empty despite SyncInterval -1")
	}
	// The push as a whole surfaced as a structural event with the trace.
	var sawPush bool
	for _, e := range aggObs.Events(0) {
		if e.Kind == fleetobs.KindPush && e.TraceID == traceID {
			sawPush = true
		}
	}
	if !sawPush {
		t.Error("aggregator: no push event for the traced batch")
	}

	// Finally the durable end: the delta frame in the segment log still
	// carries the trace ID.
	var found bool
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, segSuffix) {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		for {
			b, err := DecodeBatch(f)
			if err != nil {
				return nil
			}
			if b.TraceID == traceID && b.Delta {
				found = true
			}
		}
	})
	if !found {
		t.Error("segment log holds no delta frame with the trace ID")
	}
}

// TestWireOldDecoderAcceptsTracedFrame pins the backward direction of
// version skew across frame generations. The decode rule every earlier
// reader implements is "any version >= 1, known flags only", so a
// generation-5 reader — whose known flags are delta, binary and checked —
// must refuse a generation-6 frame by its flag byte alone, before it reads
// a compact payload as a whole one; so must a generation-4 reader (delta
// and binary), before it hands the binary header to a JSON parser, and a
// pre-binary reader, whose known flags are the retired gzip bit and delta.
// That refusal is why receivers are upgraded before senders.
func TestWireOldDecoderAcceptsTracedFrame(t *testing.T) {
	reg := makeRegistry(5, 1, 1, 40)
	b := &Batch{
		Host: "new-sender", Seq: 9, Snapshots: reg.Snapshots(),
		TraceID: "new-sender-00000001-9", CaptureUnixNano: 123456789,
	}
	data, err := EncodeBatchBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if data[4] != Version || Version != 7 {
		t.Fatalf("version byte %d, want 7", data[4])
	}
	if data[5] != flagBinary|flagChecked|flagCompact|flagKept {
		t.Errorf("full frame flags %#x, want the binary, checked, compact and kept flags alone", data[5])
	}
	for name, known := range map[string]byte{
		"pre-binary":   1<<0 | flagDelta,
		"generation-4": flagDelta | flagBinary,
		"generation-5": flagDelta | flagBinary | flagChecked,
		"generation-6": flagDelta | flagBinary | flagChecked | flagCompact,
	} {
		if data[5]&^known == 0 {
			t.Errorf("flags %#x pass a %s reader's unknown-flag check; it would misread the frame", data[5], name)
		}
	}
}

// TestWireUnknownFutureHeaderFieldIgnored hand-builds a frame from a
// future version whose header carries a field no decoder knows after the
// ones it does: it must decode, not reject — the forward-compatibility rule
// the trace fields themselves relied on.
func TestWireUnknownFutureHeaderFieldIgnored(t *testing.T) {
	header := appendHeader(nil, &Batch{Host: "future", Seq: 5, TraceID: "future-1-5"}, 0, 0)
	header = appendStr(header, "xyzzy")
	payload, err := appendPayload(nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 16)
	copy(frame[0:4], wireMagic[:])
	frame[4], frame[5] = Version+1, flagBinary|flagChecked|flagCompact|flagKept
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(header)))
	binary.BigEndian.PutUint32(frame[12:16], uint32(len(payload)))
	frame = append(append(frame, header...), payload...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))

	b, err := DecodeBatch(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("future-version frame with unknown header field: %v", err)
	}
	if b.Host != "future" || b.Seq != 5 || b.TraceID != "future-1-5" || len(b.Snapshots) != 0 {
		t.Errorf("decoded %q/%d/%q with %d snapshots", b.Host, b.Seq, b.TraceID, len(b.Snapshots))
	}
}

// TestResyncCauseCounters drives each refusal path and checks the
// per-cause counters split the total exactly.
func TestResyncCauseCounters(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	reg := makeRegistry(6, 1, 1, 80)
	base := reg.Snapshots()
	feed(reg.List()[0], 7, 40)
	cur := reg.Snapshots()

	// unknown-host: a delta before any full.
	if err := g.Ingest(deltaBatch(t, "esx-x", 2, 1, base, cur), "push"); err == nil {
		t.Fatal("delta for unknown host applied")
	}
	// seq-gap: full at 1, delta claiming base 5.
	pushFull(t, g, "esx-x", 1, reg)
	if err := g.Ingest(deltaBatch(t, "esx-x", 6, 5, base, cur), "push"); err == nil {
		t.Fatal("gapped delta applied")
	}
	// unknown-disk: a delta naming a disk the stored base does not hold.
	other := makeRegistry(7, 1, 2, 50) // different host's vm/disk names
	feed(other.List()[0], 9, 30)
	unknownDisk := &Batch{
		Host: "esx-x", Seq: 2, BaseSeq: 1, Delta: true,
		Snapshots: []*core.Snapshot{other.Snapshots()[1].Sub(nil)},
	}
	if err := g.Ingest(unknownDisk, "push"); err == nil {
		t.Fatal("delta for unknown disk applied")
	}
	// layout-mismatch: a delta that fails validation (here: a null
	// snapshot, which a legacy JSON payload can carry). A foreign layout
	// never gets this far — it is a typed decode error, refused the same
	// way (TestUnknownLayoutIsTypedNotCorrupt, TestLegacyFrameForeignLayout).
	mismatch := &Batch{
		Host: "esx-x", Seq: 3, BaseSeq: 1, Delta: true,
		Snapshots: []*core.Snapshot{nil},
	}
	err := g.Ingest(mismatch, "push")
	if err == nil {
		t.Fatal("layout-mismatched delta applied")
	}
	if !errorsIsResync(err) {
		t.Fatalf("layout mismatch on a delta: err = %v, want a resync", err)
	}

	st := g.Stats()
	if st.ResyncUnknownHost != 1 || st.ResyncSeqGap != 1 || st.ResyncUnknownDisk != 1 || st.ResyncLayoutMismatch != 1 {
		t.Errorf("per-cause = host:%d gap:%d disk:%d layout:%d, want 1 each",
			st.ResyncUnknownHost, st.ResyncSeqGap, st.ResyncUnknownDisk, st.ResyncLayoutMismatch)
	}
	if st.Resyncs != 4 {
		t.Errorf("total resyncs = %d, want 4 (the sum of causes)", st.Resyncs)
	}
	// A full batch failing validation stays a rejection, not a resync.
	if err := g.Ingest(&Batch{Host: "esx-x", Seq: 4, Snapshots: []*core.Snapshot{nil}}, "push"); err == nil || errorsIsResync(err) {
		t.Errorf("invalid FULL batch: err = %v, want non-resync rejection", err)
	}
	if got := g.Stats().Resyncs; got != 4 {
		t.Errorf("full-batch rejection bumped resyncs to %d", got)
	}
}

// TestResyncCause409Body checks the HTTP push surface serializes the
// typed cause into the 409 body, so agents and operators can tell a
// restart storm from version skew without parsing error strings.
func TestResyncCause409Body(t *testing.T) {
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour})
	srv := httptest.NewServer(g)
	defer srv.Close()

	reg := makeRegistry(8, 1, 1, 60)
	base := reg.Snapshots()
	feed(reg.List()[0], 3, 30)
	frame, err := EncodeBatchBytes(deltaBatch(t, "esx-y", 2, 1, base, reg.Snapshots()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/fleet/push", ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	var body struct {
		Error       string `json:"error"`
		ResyncCause string `json:"resync_cause"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.ResyncCause != string(ResyncUnknownHost) {
		t.Errorf("resync_cause = %q, want %q", body.ResyncCause, ResyncUnknownHost)
	}
	if body.Error == "" || !strings.Contains(body.Error, "resync") {
		t.Errorf("error body %q lost the human-readable message", body.Error)
	}
}

// TestObservabilityRoutes checks /fleet/events and /fleet/slow are 404
// without a tracker and live with one.
func TestObservabilityRoutes(t *testing.T) {
	bare := httptest.NewServer(NewAggregator(AggregatorConfig{StaleAfter: time.Hour}))
	defer bare.Close()
	for _, route := range []string{"/fleet/events", "/fleet/slow"} {
		resp, err := http.Get(bare.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without Obs: %d, want 404", route, resp.StatusCode)
		}
	}

	obs := fleetobs.New(fleetobs.Config{SampleEvery: 1})
	g := NewAggregator(AggregatorConfig{StaleAfter: time.Hour, Obs: obs})
	srv := httptest.NewServer(g)
	defer srv.Close()
	reg := makeRegistry(9, 1, 1, 30)
	pushFull(t, g, "esx-z", 1, reg)
	resp, err := http.Get(srv.URL + "/fleet/events?kind=stage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/events with Obs: %d", resp.StatusCode)
	}
	var events struct {
		Total  int64            `json:"total"`
		Events []fleetobs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if events.Total < 1 || len(events.Events) < 1 {
		t.Errorf("events after an ingest: total %d, %d returned", events.Total, len(events.Events))
	}
	resp2, err := http.Get(srv.URL + "/fleet/slow?threshold=0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/fleet/slow with Obs: %d", resp2.StatusCode)
	}
}
