package telemetry

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

func (s *Streamer) subscriberCount() int {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	return len(s.subs)
}

func waitForSubscribers(t *testing.T, s *Streamer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.subscriberCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamerSeries: deterministic ticks produce per-interval deltas, the
// ring stays bounded, and the series endpoint serves them with optional
// histograms.
func TestStreamerSeries(t *testing.T) {
	rig := newRig(t, "vm1", "scsi0:0")
	rig.col.Enable()
	s := NewStreamer(rig.reg, time.Second, 3)

	rig.issue(t, 10, 0)
	s.Tick(time.Unix(100, 0))
	rig.issue(t, 5, 2)
	s.Tick(time.Unix(101, 0))

	points := s.Series("vm1", "scsi0:0")
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Delta.Commands != 10 || points[1].Delta.Commands != 7 {
		t.Errorf("deltas = %d, %d; want 10, 7", points[0].Delta.Commands, points[1].Delta.Commands)
	}
	if points[1].Delta.NumWrites != 2 {
		t.Errorf("write delta = %d", points[1].Delta.NumWrites)
	}

	// Ring depth 3: five ticks keep the last three.
	for i := 0; i < 3; i++ {
		s.Tick(time.Unix(int64(102+i), 0))
	}
	points = s.Series("vm1", "scsi0:0")
	if len(points) != 3 {
		t.Fatalf("ring grew past depth: %d", len(points))
	}
	if points[0].Seq != 3 || points[2].Seq != 5 {
		t.Errorf("ring seqs = %d..%d, want 3..5", points[0].Seq, points[2].Seq)
	}

	// HTTP: full series with a delta histogram attached.
	req := httptest.NewRequest(http.MethodGet, "/disks/vm1/scsi0:0/series?metric=ioLength&class=reads&n=3", nil)
	rec := httptest.NewRecorder()
	s.ServeSeries(rec, req, "vm1", "scsi0:0")
	if rec.Code != 200 {
		t.Fatalf("series: %d %s", rec.Code, rec.Body.String())
	}
	var resp seriesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Metric != "ioLength" || resp.Class != "reads" || len(resp.Points) != 3 {
		t.Errorf("response: metric=%q class=%q points=%d", resp.Metric, resp.Class, len(resp.Points))
	}
	for _, p := range resp.Points {
		if p.Histogram == nil {
			t.Errorf("point %d missing histogram", p.Seq)
		}
	}

	// Error paths: unknown disk, bad metric, bad class, bad method.
	rec = httptest.NewRecorder()
	s.ServeSeries(rec, httptest.NewRequest(http.MethodGet, "/x", nil), "ghost", "d")
	if rec.Code != http.StatusNotFound || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("unknown disk: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	rec = httptest.NewRecorder()
	s.ServeSeries(rec, httptest.NewRequest(http.MethodGet, "/x?metric=bogus", nil), "vm1", "scsi0:0")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad metric: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeSeries(rec, httptest.NewRequest(http.MethodGet, "/x?class=bogus", nil), "vm1", "scsi0:0")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad class: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeSeries(rec, httptest.NewRequest(http.MethodPost, "/x", nil), "vm1", "scsi0:0")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET" {
		t.Errorf("bad method: %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestStreamerWatchSSE is the SSE smoke test: subscribe over real HTTP,
// drive one deterministic tick, and decode the pushed event.
func TestStreamerWatchSSE(t *testing.T) {
	rig := newRig(t, "vm1", "scsi0:0")
	rig.col.Enable()
	s := NewStreamer(rig.reg, time.Second, 4)
	t.Cleanup(s.Stop)

	srv := httptest.NewServer(http.HandlerFunc(s.ServeWatch))
	t.Cleanup(srv.Close)

	type sse struct {
		event string
		data  string
	}
	got := make(chan sse, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Errorf("Content-Type = %q", ct)
		}
		sc := bufio.NewScanner(resp.Body)
		var ev sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.data != "":
				got <- ev
				return
			}
		}
		errc <- sc.Err()
	}()

	waitForSubscribers(t, s, 1)
	rig.issue(t, 12, 4)
	s.Tick(time.Unix(200, 0))

	select {
	case err := <-errc:
		t.Fatalf("client: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no SSE event within 10s")
	case ev := <-got:
		if ev.event != "interval" {
			t.Errorf("event = %q", ev.event)
		}
		var w watchEvent
		if err := json.Unmarshal([]byte(ev.data), &w); err != nil {
			t.Fatalf("event data: %v in %q", err, ev.data)
		}
		if len(w.Disks) != 1 || w.Disks[0].Commands != 16 || w.Disks[0].Reads != 12 {
			t.Errorf("event: %+v", w)
		}
		if w.Disks[0].MeanLatencyMicros <= 0 {
			t.Errorf("mean latency = %v", w.Disks[0].MeanLatencyMicros)
		}
	}

	// A slow (never-draining) subscriber must not block ticks: after the
	// buffer fills, events are dropped and counted.
	ch := s.subscribe()
	defer s.unsubscribe(ch)
	for i := 0; i < cap(ch)+5; i++ {
		s.Tick(time.Unix(int64(300+i), 0))
	}
	if s.Dropped() == 0 {
		t.Error("slow subscriber never dropped an event")
	}

	// Method guard.
	rec := httptest.NewRecorder()
	s.ServeWatch(rec, httptest.NewRequest(http.MethodDelete, "/watch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /watch = %d", rec.Code)
	}
}

// TestStreamerAfterReset: 10 reads, tick, Reset, 3 reads, tick — the
// second interval is the 3 commands accumulated since the reset
// (commands: -7 before core.IntervalSince), on /series and in the ring.
func TestStreamerAfterReset(t *testing.T) {
	rig := newRig(t, "vm1", "scsi0:0")
	rig.col.Enable()
	s := NewStreamer(rig.reg, time.Second, 8)
	rig.issue(t, 10, 0)
	s.Tick(time.Unix(100, 0))
	rig.col.Reset()
	rig.issue(t, 3, 0)
	s.Tick(time.Unix(101, 0))
	rig.issue(t, 4, 0)
	s.Tick(time.Unix(102, 0))

	rec := httptest.NewRecorder()
	s.ServeSeries(rec, httptest.NewRequest(http.MethodGet, "/disks/vm1/scsi0:0/series?metric=ioLength", nil), "vm1", "scsi0:0")
	var resp seriesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, p := range resp.Points {
		got = append(got, p.Commands)
		for _, n := range p.Histogram.Counts {
			if n < 0 {
				t.Errorf("seq %d: negative bin in the interval histogram", p.Seq)
			}
		}
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 3 || got[2] != 4 {
		t.Errorf("interval commands = %v, want [10 3 4]", got)
	}
}

// TestStreamerIntervalsAddUpToTheSnapshot is the interval law for the
// Streamer: folded with ApplyDelta from empty, every point a disk's ring
// holds gives the disk's snapshot at the last tick, counters and every cell.
// The disks are fed between ticks, some commands still in flight at a tick,
// and one disk appears after the first ticks, so its first point is its
// whole state. The extrema need no exception here: a delta carries its later
// snapshot's, which ApplyDelta takes, and the fold starts from empty.
func TestStreamerIntervalsAddUpToTheSnapshot(t *testing.T) {
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(simclock.Time(1+r.Cmd.LBA%7)*simclock.Millisecond, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
	})
	reg := core.NewRegistry()
	var disks []*vscsi.Disk
	attach := func(vm, name string) {
		d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: vm, Name: name, CapacitySectors: 1 << 20})
		col := core.NewCollector(vm, name)
		col.Enable()
		d.AddObserver(col)
		reg.Register(col)
		disks = append(disks, d)
	}
	attach("vm1", "scsi0:0")
	attach("vm1", "scsi0:1")
	const ticks = 12
	s := NewStreamer(reg, time.Second, ticks)
	rng := rand.New(rand.NewSource(47))
	for tick := range ticks {
		if tick == 3 {
			attach("vm2", "scsi0:0")
		}
		for range 40 + rng.Intn(60) {
			cmd := scsi.Read(uint64(rng.Intn(1<<19)), 8<<rng.Intn(4))
			if rng.Intn(3) == 0 {
				cmd = scsi.Write(uint64(rng.Intn(1<<19)), 16)
			}
			if _, err := disks[rng.Intn(len(disks))].Issue(cmd, nil); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(eng.Now() + simclock.Time(rng.Intn(3))*simclock.Millisecond) // some still in flight at the tick
		}
		s.Tick(time.Unix(int64(100+tick), 0))
	}
	for _, want := range reg.Snapshots() {
		points := s.Series(want.VM, want.Disk)
		sum := new(core.Snapshot)
		for _, p := range points {
			sum = sum.ApplyDelta(p.Delta)
		}
		if want.Commands == 0 || !sum.StateEquals(want) {
			t.Errorf("%s/%s: %d intervals add up to %d commands, the snapshot holds %d, or a cell differs",
				want.VM, want.Disk, len(points), sum.Commands, want.Commands)
		}
	}
}
