package telemetry

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
	"vscsistats/internal/ring"
)

// IntervalPoint is one interval's worth of activity on one virtual disk:
// the delta between two consecutive registry snapshots, stamped with a
// wall-clock time and a monotonically increasing tick sequence number.
type IntervalPoint struct {
	Seq      int64
	UnixNano int64
	// Delta holds the histograms and counters accumulated during the
	// interval (Snapshot.Sub of consecutive cumulative snapshots). The
	// first point after enable is the cumulative state so far.
	Delta *core.Snapshot
}

// Streamer periodically snapshots every collector in a registry and
// retains a bounded ring of per-interval deltas per virtual disk — the
// online equivalent of internal/core's IntervalRecorder, driven by wall
// time instead of virtual time. It serves two HTTP surfaces:
//
//   - ServeSeries: JSON time series for one disk
//     (GET /disks/{vm}/{disk}/series?metric=&class=&n=);
//   - ServeWatch: a live SSE feed (GET /watch) pushing one event per tick
//     with a compact per-disk activity summary.
//
// Drive it with Start/Stop in production or call Tick directly from tests
// for deterministic output. Slow SSE subscribers never block a tick:
// events are dropped instead, and the drop count is observable.
type Streamer struct {
	reg      *core.Registry
	interval time.Duration
	depth    int

	mu    sync.Mutex
	seq   int64
	disks map[diskKey]*diskRing

	subMu   sync.Mutex
	subs    map[chan []byte]struct{}
	dropped atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
}

// NewStreamer returns a streamer sampling reg every interval, keeping the
// most recent depth points per disk (minimums 1ms and 1 apply).
func NewStreamer(reg *core.Registry, interval time.Duration, depth int) *Streamer {
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	return &Streamer{
		reg:      reg,
		interval: interval,
		depth:    depth,
		disks:    map[diskKey]*diskRing{},
		subs:     map[chan []byte]struct{}{},
		stop:     make(chan struct{}),
	}
}

// Interval returns the sampling interval.
func (s *Streamer) Interval() time.Duration { return s.interval }

// Dropped returns the number of SSE events discarded because a subscriber
// was too slow to drain its buffer.
func (s *Streamer) Dropped() int64 { return s.dropped.Load() }

// Start launches the sampling loop in a new goroutine. Stop ends it.
func (s *Streamer) Start() {
	go func() {
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.Tick(now)
			}
		}
	}()
}

// Stop ends the sampling loop started by Start. Idempotent.
func (s *Streamer) Stop() { s.stopOnce.Do(func() { close(s.stop) }) }

type diskKey struct{ vm, disk string }

// diskRing is what the streamer keeps per virtual disk: the previous
// cumulative snapshot and the ring of interval points.
type diskRing struct {
	prev   *core.Snapshot
	points *ring.Ring[IntervalPoint]
}

// Tick takes one sampling pass: snapshot every enabled collector, append
// the interval delta to its ring, and broadcast a summary to SSE
// subscribers. Exported so tests (and virtual-time drivers) can sample
// deterministically without wall-clock sleeps.
func (s *Streamer) Tick(now time.Time) {
	snaps := s.reg.Snapshots() // sorted by (vm, disk)

	s.mu.Lock()
	s.seq++
	seq := s.seq
	points := make([]IntervalPoint, 0, len(snaps))
	for _, snap := range snaps {
		key := diskKey{snap.VM, snap.Disk}
		st := s.disks[key]
		if st == nil {
			st = &diskRing{points: ring.New[IntervalPoint](s.depth)}
			s.disks[key] = st
		}
		p := IntervalPoint{Seq: seq, UnixNano: now.UnixNano(), Delta: core.IntervalSince(st.prev, snap)}
		st.prev = snap
		st.points.Push(p)
		points = append(points, p)
	}
	s.mu.Unlock()

	s.broadcast(seq, now, points)
}

// Series returns the retained points for one disk, oldest first, or nil
// if the streamer has never sampled it.
func (s *Streamer) Series(vm, disk string) []IntervalPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.disks[diskKey{vm, disk}]
	if st == nil {
		return nil
	}
	return st.points.Last(0)
}

// seriesPoint is the JSON wire form of one interval.
type seriesPoint struct {
	Seq               int64               `json:"seq"`
	UnixNano          int64               `json:"unixNano"`
	Commands          int64               `json:"commands"`
	Reads             int64               `json:"reads"`
	Writes            int64               `json:"writes"`
	ReadBytes         int64               `json:"readBytes"`
	WriteBytes        int64               `json:"writeBytes"`
	Errors            int64               `json:"errors"`
	MeanLatencyMicros float64             `json:"meanLatencyMicros"`
	Histogram         *histogram.Snapshot `json:"histogram,omitempty"`
}

type seriesResponse struct {
	VM              string        `json:"vm"`
	Disk            string        `json:"disk"`
	IntervalSeconds float64       `json:"intervalSeconds"`
	Metric          string        `json:"metric,omitempty"`
	Class           string        `json:"class,omitempty"`
	Points          []seriesPoint `json:"points"`
}

// ServeSeries implements GET /disks/{vm}/{disk}/series. Optional query
// parameters: metric (one of the core metric names) and class
// (all|reads|writes) attach the per-interval delta histogram to each
// point; n limits the response to the most recent n points.
func (s *Streamer) ServeSeries(w http.ResponseWriter, r *http.Request, vm, disk string) {
	if r.Method != http.MethodGet {
		JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	if s.reg.Lookup(vm, disk) == nil {
		JSONError(w, http.StatusNotFound, "no such disk")
		return
	}

	var metric core.Metric
	if m := r.URL.Query().Get("metric"); m != "" {
		metric = core.Metric(m)
		known := false
		for _, k := range core.Metrics() {
			if k == metric {
				known = true
				break
			}
		}
		if !known {
			JSONError(w, http.StatusBadRequest, "unknown metric "+strconv.Quote(m))
			return
		}
	}
	class := core.All
	switch cl := r.URL.Query().Get("class"); cl {
	case "", "all":
	case "reads":
		class = core.Reads
	case "writes":
		class = core.Writes
	default:
		JSONError(w, http.StatusBadRequest, "unknown class "+strconv.Quote(cl))
		return
	}

	points := s.Series(vm, disk)
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		n, err := strconv.Atoi(nStr)
		if err != nil || n < 0 {
			JSONError(w, http.StatusBadRequest, "bad n")
			return
		}
		if n < len(points) {
			points = points[len(points)-n:]
		}
	}

	resp := seriesResponse{
		VM:              vm,
		Disk:            disk,
		IntervalSeconds: s.interval.Seconds(),
		Points:          make([]seriesPoint, 0, len(points)),
	}
	if metric != "" {
		resp.Metric = string(metric)
		resp.Class = class.String()
	}
	for _, p := range points {
		sp := seriesPoint{
			Seq:        p.Seq,
			UnixNano:   p.UnixNano,
			Commands:   p.Delta.Commands,
			Reads:      p.Delta.NumReads,
			Writes:     p.Delta.NumWrites,
			ReadBytes:  p.Delta.ReadBytes,
			WriteBytes: p.Delta.WriteBytes,
			Errors:     p.Delta.Errors,
		}
		if lat := p.Delta.Histogram(core.MetricLatency, core.All); lat != nil && lat.Total > 0 {
			sp.MeanLatencyMicros = lat.Mean()
		}
		if metric != "" {
			sp.Histogram = p.Delta.Histogram(metric, class)
		}
		resp.Points = append(resp.Points, sp)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// watchDisk is the per-disk summary inside one SSE event.
type watchDisk struct {
	VM                string  `json:"vm"`
	Disk              string  `json:"disk"`
	Commands          int64   `json:"commands"`
	Reads             int64   `json:"reads"`
	Writes            int64   `json:"writes"`
	Errors            int64   `json:"errors"`
	MeanLatencyMicros float64 `json:"meanLatencyMicros"`
}

type watchEvent struct {
	Seq      int64       `json:"seq"`
	UnixNano int64       `json:"unixNano"`
	Disks    []watchDisk `json:"disks"`
}

func (s *Streamer) broadcast(seq int64, now time.Time, points []IntervalPoint) {
	s.subMu.Lock()
	n := len(s.subs)
	s.subMu.Unlock()
	if n == 0 {
		return
	}

	ev := watchEvent{Seq: seq, UnixNano: now.UnixNano(), Disks: make([]watchDisk, 0, len(points))}
	for _, p := range points {
		d := watchDisk{
			VM:       p.Delta.VM,
			Disk:     p.Delta.Disk,
			Commands: p.Delta.Commands,
			Reads:    p.Delta.NumReads,
			Writes:   p.Delta.NumWrites,
			Errors:   p.Delta.Errors,
		}
		if lat := p.Delta.Histogram(core.MetricLatency, core.All); lat != nil && lat.Total > 0 {
			d.MeanLatencyMicros = lat.Mean()
		}
		ev.Disks = append(ev.Disks, d)
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}

	s.subMu.Lock()
	for ch := range s.subs {
		select {
		case ch <- payload:
		default:
			s.dropped.Add(1)
		}
	}
	s.subMu.Unlock()
}

func (s *Streamer) subscribe() chan []byte {
	ch := make(chan []byte, 8)
	s.subMu.Lock()
	s.subs[ch] = struct{}{}
	s.subMu.Unlock()
	return ch
}

func (s *Streamer) unsubscribe(ch chan []byte) {
	s.subMu.Lock()
	delete(s.subs, ch)
	s.subMu.Unlock()
}

// ServeWatch implements GET /watch as a Server-Sent Events stream: one
// "interval" event per tick, carrying the watchEvent JSON. The stream ends
// when the client disconnects or the streamer is stopped.
func (s *Streamer) ServeWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		JSONError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := s.subscribe()
	defer s.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case payload := <-ch:
			if _, err := w.Write([]byte("event: interval\ndata: ")); err != nil {
				return
			}
			if _, err := w.Write(payload); err != nil {
				return
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
