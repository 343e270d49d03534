package fleetobs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/telemetry"
	"vscsistats/internal/telemetry/promtest"
)

// TestStageNamesAndScopes pins the stage taxonomy: every stage has a
// distinct snake_case name, agent stages precede aggregator stages, and
// the scope split falls exactly after queue_dwell.
func TestStageNamesAndScopes(t *testing.T) {
	seen := map[string]bool{}
	for st := Stage(0); st < numStages; st++ {
		name := st.String()
		if name == "" || strings.Contains(name, "stage(") {
			t.Fatalf("stage %d has no name", st)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
		want := "aggregator"
		if st <= StageQueueDwell {
			want = "agent"
		}
		if st.Scope() != want {
			t.Errorf("stage %s scope = %q, want %q", name, st.Scope(), want)
		}
	}
	if Stage(numStages).String() == stageNames[0] {
		t.Error("out-of-range stage resolved to a real name")
	}
}

// TestRingOrderingAndWrap fills a small ring past capacity and checks
// the survivors are the newest events, in order, with monotone
// sequence numbers.
func TestRingOrderingAndWrap(t *testing.T) {
	tr := newTracker(Config{SampleEvery: 1}, 4, slowK)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindRotation, Shard: i})
	}
	events := tr.Events(0)
	if len(events) != 4 {
		t.Fatalf("ring of 4 holds %d events", len(events))
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d (newest 4 of 10)", i, e.Seq, want)
		}
		if want := 6 + i; e.Shard != want {
			t.Errorf("event %d shard = %d, want %d", i, e.Shard, want)
		}
	}
	if got := tr.Events(2); len(got) != 2 || got[1].Seq != 10 {
		t.Errorf("Events(2) = %v, want the last two", got)
	}
	if tr.EventsTotal() != 10 {
		t.Errorf("EventsTotal = %d, want 10 (overwrites included)", tr.EventsTotal())
	}
}

// TestSlowRingKeepsTopK pins the top-K property: with K=2, the two
// slowest spans survive whatever order they arrive in, slowest first.
func TestSlowRingKeepsTopK(t *testing.T) {
	tr := newTracker(Config{SampleEvery: 1}, ringSize, 2)
	for _, ms := range []int{3, 1, 7, 2, 5} {
		tr.Observe(StageIngest, time.Duration(ms)*time.Millisecond, Event{Shard: ms})
	}
	slow := tr.Slowest(0, 0)
	if len(slow) != 2 {
		t.Fatalf("slow ring holds %d, want 2", len(slow))
	}
	if slow[0].DurationNanos != (7*time.Millisecond).Nanoseconds() ||
		slow[1].DurationNanos != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("slowest = %d, %d ns; want 7ms, 5ms", slow[0].DurationNanos, slow[1].DurationNanos)
	}
	if got := tr.Slowest(6*time.Millisecond, 0); len(got) != 1 {
		t.Errorf("threshold 6ms returned %d ops, want 1", len(got))
	}
}

// TestSamplingMask checks Sample admits exactly 1 in SampleEvery calls.
func TestSamplingMask(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	hits := 0
	for i := 0; i < 64; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 16 {
		t.Errorf("1-in-4 sampling admitted %d of 64", hits)
	}
	every := New(Config{SampleEvery: 1})
	for i := 0; i < 8; i++ {
		if !every.Sample() {
			t.Fatal("SampleEvery=1 skipped an operation")
		}
	}
}

// TestNilTrackerInert: a nil *Tracker must absorb every call — the
// pipeline calls through unconditionally.
func TestNilTrackerInert(t *testing.T) {
	var tr *Tracker
	if tr.Sample() {
		t.Error("nil tracker sampled")
	}
	tr.Observe(StageIngest, time.Millisecond, Event{})
	if d := tr.ObserveSince(StageIngest, time.Now(), Event{}); d < 0 {
		t.Error("nil ObserveSince returned negative duration")
	}
	tr.Emit(Event{Kind: KindReplay})
	if tr.Events(0) != nil || tr.Slowest(0, 0) != nil || tr.Stages() != nil {
		t.Error("nil tracker returned data")
	}
	if tr.EventsTotal() != 0 {
		t.Error("nil tracker counted events")
	}
	if samples := scrapeTracker(t, tr); len(samples) != 3 {
		t.Errorf("nil tracker exported telemetry: %d samples beside the exporter's own three", len(samples))
	}
	if tr.Hist(StageIngest) != nil {
		t.Error("nil tracker returned a histogram")
	}
}

// TestObserveRecordsEverything: one Observe lands in the stage
// histogram, the event ring, the per-kind counters and (being the
// slowest seen) the slow ring.
func TestObserveRecordsEverything(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tr.Observe(StageDecode, 3*time.Millisecond, Event{Host: "esx-1", TraceID: "esx-1-0-7", BatchSeq: 7})
	if got := tr.Hist(StageDecode).Total(); got != 1 {
		t.Errorf("decode histogram total = %d, want 1", got)
	}
	events := tr.Events(0)
	if len(events) != 1 {
		t.Fatalf("%d events, want 1", len(events))
	}
	e := events[0]
	if e.Kind != KindStage || e.Stage != "decode" || e.Scope != "aggregator" ||
		e.TraceID != "esx-1-0-7" || e.DurationNanos != (3*time.Millisecond).Nanoseconds() {
		t.Errorf("event = %+v", e)
	}
	if e.UnixNano == 0 {
		t.Error("event timestamp not stamped")
	}
	if slow := tr.Slowest(0, 0); len(slow) != 1 || slow[0].TraceID != "esx-1-0-7" {
		t.Errorf("slow ring = %+v", slow)
	}
	samples := scrapeTracker(t, tr)
	if got := promtest.Find(t, samples, "vscsistats_fleetobs_events_total", "kind", KindStage).Value; got != 1 {
		t.Errorf("stage kind count = %v, want 1", got)
	}
	if got := promtest.Find(t, samples, "vscsistats_fleetobs_events_total", "kind", "other").Value; got != 0 {
		t.Errorf("other kind count = %v, want 0", got)
	}
	if got := promtest.Find(t, samples, "vscsistats_fleetobs_stage_duration_nanoseconds_count", "scope", "aggregator", "stage", "decode").Value; got != 1 {
		t.Errorf("decode stage _count = %v, want 1", got)
	}
	if got := promtest.Find(t, samples, "vscsistats_fleetobs_stage_duration_nanoseconds_sum", "scope", "aggregator", "stage", "decode").Value; got != 3e6 {
		t.Errorf("decode stage _sum = %v, want 3e6", got)
	}
}

// scrapeTracker runs one exposition with only tr attached through the
// strict parser.
func scrapeTracker(t *testing.T, tr *Tracker) []promtest.Sample {
	t.Helper()
	var sb strings.Builder
	if err := telemetry.NewExporter(core.NewRegistry()).With(tr).Write(&sb); err != nil {
		t.Fatal(err)
	}
	return promtest.Parse(t, sb.String())
}

// TestServeEventsFilters drives the /fleet/events handler: kind and
// host filters, limit, and the method guard.
func TestServeEventsFilters(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tr.Emit(Event{Kind: KindResync, Host: "esx-a", Cause: "seq-gap"})
	tr.Emit(Event{Kind: KindRotation, Host: "esx-b"})
	tr.Emit(Event{Kind: KindResync, Host: "esx-b", Cause: "unknown-host"})

	get := func(url string) (int, map[string]json.RawMessage) {
		rec := httptest.NewRecorder()
		tr.ServeEvents(rec, httptest.NewRequest("GET", url, nil))
		var body map[string]json.RawMessage
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("%s: bad JSON: %v", url, err)
			}
		}
		return rec.Code, body
	}
	countEvents := func(body map[string]json.RawMessage) int {
		var events []Event
		if err := json.Unmarshal(body["events"], &events); err != nil {
			t.Fatal(err)
		}
		return len(events)
	}

	if code, body := get("/fleet/events"); code != 200 || countEvents(body) != 3 {
		t.Errorf("unfiltered: code %d, %d events", code, countEvents(body))
	}
	if _, body := get("/fleet/events?kind=resync"); countEvents(body) != 2 {
		t.Error("kind filter failed")
	}
	if _, body := get("/fleet/events?host=esx-b"); countEvents(body) != 2 {
		t.Error("host filter failed")
	}
	if _, body := get("/fleet/events?kind=resync&host=esx-b&limit=1"); countEvents(body) != 1 {
		t.Error("combined filter + limit failed")
	}
	rec := httptest.NewRecorder()
	tr.ServeEvents(rec, httptest.NewRequest("POST", "/fleet/events", nil))
	if rec.Code != 405 {
		t.Errorf("POST /fleet/events = %d, want 405", rec.Code)
	}
}

// TestServeSlowThresholds drives /fleet/slow: duration and integer
// thresholds, plus the bad-threshold guard.
func TestServeSlowThresholds(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tr.Observe(StageFsync, 10*time.Millisecond, Event{Shard: 0})
	tr.Observe(StageFsync, 1*time.Millisecond, Event{Shard: 1})

	get := func(url string) (int, int) {
		rec := httptest.NewRecorder()
		tr.ServeSlow(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			return rec.Code, 0
		}
		var body struct {
			Ops []Event `json:"ops"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: bad JSON: %v", url, err)
		}
		return rec.Code, len(body.Ops)
	}
	if code, n := get("/fleet/slow"); code != 200 || n != 2 {
		t.Errorf("no threshold: code %d, %d ops", code, n)
	}
	if _, n := get("/fleet/slow?threshold=5ms"); n != 1 {
		t.Errorf("threshold=5ms returned %d ops, want 1", n)
	}
	if _, n := get("/fleet/slow?threshold=5000000"); n != 1 {
		t.Errorf("integer nanos threshold returned %d ops, want 1", n)
	}
	if code, _ := get("/fleet/slow?threshold=gibberish"); code != 400 {
		t.Errorf("bad threshold = %d, want 400", code)
	}
}

// TestChromeTraceValidJSON renders a mixed ring (spans, instants,
// causes) and checks the output is one valid JSON array with process
// and thread metadata and correctly classified phases.
func TestChromeTraceValidJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tr.Observe(StagePush, 2*time.Millisecond, Event{Host: "esx-1", TraceID: "t-1"})
	tr.Emit(Event{Kind: KindResync, Host: "esx-1", Cause: "seq-gap"})
	tr.Emit(Event{Kind: KindRotation, Scope: "aggregator", Shard: 3})

	rec := httptest.NewRecorder()
	tr.ChromeTraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("trace handler = %d", rec.Code)
	}
	var entries []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &entries); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	var metas, slices, instants int
	names := map[string]bool{}
	for _, e := range entries {
		switch e["ph"] {
		case "M":
			metas++
			if args, ok := e["args"].(map[string]any); ok {
				names[args["name"].(string)] = true
			}
		case "X":
			slices++
			if e["dur"].(float64) <= 0 {
				t.Error("span with non-positive dur")
			}
		case "i":
			instants++
		default:
			t.Errorf("unknown phase %v", e["ph"])
		}
	}
	// esx-1 and aggregator processes, plus a thread per stage/kind.
	if !names["esx-1"] || !names["aggregator"] || !names["push"] || !names["rotation"] {
		t.Errorf("metadata names = %v", names)
	}
	if metas < 4 || slices != 1 || instants != 2 {
		t.Errorf("metas/slices/instants = %d/%d/%d, want >=4/1/2", metas, slices, instants)
	}
}

// TestConcurrentObserveAndRead hammers one tracker from writers and
// readers at once — the -race proof for the event ring's lock, the slow
// ring's admission floor and the lock-free histograms.
func TestConcurrentObserveAndRead(t *testing.T) {
	tr := newTracker(Config{SampleEvery: 1}, 64, 8)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				tr.Observe(Stage(i%int(numStages)), time.Duration(i+1)*time.Microsecond, Event{Shard: w})
				tr.Emit(Event{Kind: KindPush, Shard: w, BatchSeq: uint64(i)})
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			events := tr.Events(0)
			for i := 1; i < len(events); i++ {
				if events[i].Seq <= events[i-1].Seq {
					t.Error("ring events out of order")
					return
				}
			}
			tr.Slowest(0, 0)
			tr.Stages()
			tr.WriteChromeTrace(io.Discard)
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	if got := tr.EventsTotal(); got != 4*500*2 {
		t.Errorf("EventsTotal = %d, want %d", got, 4*500*2)
	}
}

// TestErrorRepliesAreJSON: every 4xx on the tracker's three HTTP
// surfaces honours the contract in internal/httpstats' package comment —
// a JSON {"error": …} body with Content-Type: application/json, and an
// Allow header on every 405.
func TestErrorRepliesAreJSON(t *testing.T) {
	tr := New(Config{})
	trace := tr.ChromeTraceHandler().ServeHTTP
	for _, tc := range []struct {
		name   string
		serve  func(http.ResponseWriter, *http.Request)
		method string
		target string
		code   int
	}{
		{"events POST", tr.ServeEvents, "POST", "/fleet/events", 405},
		{"events DELETE", tr.ServeEvents, "DELETE", "/fleet/events", 405},
		{"events bad limit", tr.ServeEvents, "GET", "/fleet/events?limit=x", 400},
		{"events negative limit", tr.ServeEvents, "GET", "/fleet/events?limit=-1", 400},
		{"slow POST", tr.ServeSlow, "POST", "/fleet/slow", 405},
		{"slow bad threshold", tr.ServeSlow, "GET", "/fleet/slow?threshold=gibberish", 400},
		{"slow bad limit", tr.ServeSlow, "GET", "/fleet/slow?limit=x", 400},
		{"slow negative limit", tr.ServeSlow, "GET", "/fleet/slow?limit=-1", 400},
		{"trace POST", trace, "POST", "/debug/trace", 405},
		{"trace PUT", trace, "PUT", "/debug/trace", 405},
	} {
		rec := httptest.NewRecorder()
		tc.serve(rec, httptest.NewRequest(tc.method, tc.target, nil))
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Errorf("%s: body %q is not a JSON error object (%v)", tc.name, rec.Body.String(), err)
		}
		if allow := rec.Header().Get("Allow"); (tc.code == 405) != (allow == "GET") {
			t.Errorf("%s: Allow %q on a %d", tc.name, allow, tc.code)
		}
	}
}

// TestEventsWindowIsConsecutive: with emitters lapping a small ring
// while a reader takes windows, every window is a run of consecutive
// sequence numbers — no slot from an older lap stands in for a newer
// event.
func TestEventsWindowIsConsecutive(t *testing.T) {
	tr := newTracker(Config{SampleEvery: 1}, 8, slowK)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.Emit(Event{Kind: KindPush, Shard: w})
				}
			}
		}(w)
	}
	gaps := 0
	for i := 0; i < 20000; i++ {
		events := tr.Events(0)
		for j := 1; j < len(events); j++ {
			if events[j].Seq != events[j-1].Seq+1 {
				gaps++
				break
			}
		}
	}
	close(stop)
	writers.Wait()
	if gaps > 0 {
		t.Errorf("%d of 20000 windows skip a sequence number", gaps)
	}
}

// TestEmitAllocatesNothing: recording an event or a stage span into a
// full ring costs no heap allocation.
func TestEmitAllocatesNothing(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	for i := 0; i < ringSize; i++ {
		tr.Emit(Event{Kind: KindRotation})
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(Event{Kind: KindRotation, Host: "esx-1"}) }); n != 0 {
		t.Errorf("Emit allocates %v times", n)
	}
	if n := testing.AllocsPerRun(1000, func() { tr.Observe(StageIngest, time.Microsecond, Event{Host: "esx-1"}) }); n != 0 {
		t.Errorf("Observe allocates %v times", n)
	}
}
