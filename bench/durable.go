package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/vscsim"
)

// fleet_durable drives the wire codec, a flat aggregator and its segment
// log with writes beside reads. One cycle: encode and POST every host's
// frames (one full, then deltas) while scraping the merged views; close;
// reopen (boot replay of the whole log); answer history window queries.
// The simulator only supplies the template host states during set-up.

const (
	durShards    = 16              // the aggregator's default
	durFrameStep = 2 * time.Second // sender clock between a host's frames
)

type durable struct {
	e      *env
	client *http.Client
	srv    *httptest.Server
	agg    atomic.Pointer[fleet.Aggregator] // the cycle's live aggregator, served by srv

	batches [][]*fleet.Batch // [host][frame]
	base    time.Time        // sender clock of every host's first frame
	first   *core.Snapshot   // merge of every host's full frame: the fleet's state at base
	pushes  atomic.Int64
	cause   atomic.Int32 // span the next round trips are caused by
}

// captureTemplates runs a small seeded sim against a decoding push handler
// and returns, per simulated host, the frames its agent sent: one full,
// then frames-1 interval deltas.
func captureTemplates(e *env) ([][]*fleet.Batch, error) {
	var mu sync.Mutex
	got := map[string][]*fleet.Batch{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := fleet.DecodeBatch(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got[b.Host] = append(got[b.Host], b)
		mu.Unlock()
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs}}
	defer client.CloseIdleConnections()

	inv := seededInventory(e.seed, 0, e.sz.durTemplates, e.sz.treeVMsPerHost)
	sim, err := vscsim.New(inv, vscsim.SimConfig{Push: srv.URL, Workers: e.procs, Client: client})
	if err != nil {
		return nil, err
	}
	for k := 0; k < e.sz.durFrames; k++ {
		step := durFrameStep
		if k == 0 {
			step = 20 * time.Second // the full frame carries some history
		}
		if err := sim.RunVirtual(step); err != nil {
			return nil, err
		}
		if err := sim.PushAll(); err != nil {
			return nil, err
		}
	}
	var out [][]*fleet.Batch
	for _, h := range inv.Hosts {
		frames := got[h.Name]
		if len(frames) != e.sz.durFrames || frames[0].Delta {
			return nil, fmt.Errorf("template host %s sent %d frames, want 1 full + %d deltas", h.Name, len(frames), e.sz.durFrames-1)
		}
		out = append(out, frames)
	}
	return out, nil
}

func setupDurable(e *env) (instance, error) {
	d := &durable{e: e}
	tmpl, err := captureTemplates(e)
	if err != nil {
		return nil, fmt.Errorf("capture template frames: %w", err)
	}
	// Frames are stamped in the recent past so that a recovered host, whose
	// liveness is its recorded send time, is fresh.
	d.base = time.Now().Add(-time.Duration(e.sz.durFrames) * durFrameStep)
	var fulls []*core.Snapshot
	for h := 0; h < e.sz.durHosts; h++ {
		frames := make([]*fleet.Batch, e.sz.durFrames)
		for k, t := range tmpl[h%len(tmpl)] {
			sent := d.base.Add(time.Duration(k) * durFrameStep).UnixNano()
			frames[k] = &fleet.Batch{
				Host: fmt.Sprintf("dur-%04d", h), Seq: uint64(k + 1),
				SentUnixNano: sent, CaptureUnixNano: sent, Snapshots: t.Snapshots,
			}
			if k > 0 {
				frames[k].Delta, frames[k].BaseSeq = true, uint64(k)
			}
		}
		d.batches = append(d.batches, frames)
		fulls = append(fulls, frames[0].Snapshots...)
	}
	d.first = core.Aggregate("*", "*", fulls...)

	d.client = newClient(e, func() spanID { return spanID(d.cause.Load()) })
	d.srv = httptest.NewServer(wrapHandler(e, "fleet.aggregator.serve", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.agg.Load().ServeHTTP(w, r)
	}), nil))

	// Warm-up: one untimed cycle opens connections and fills the gzip and
	// buffer pools.
	var warm result
	d.cycle(&warm, nil)
	if len(warm.Problems) > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up cycle: %s", warm.Problems[0])
	}
	return d, nil
}

func (d *durable) close() {
	d.srv.Close()
	d.client.CloseIdleConnections()
}

func (d *durable) config(dir string) fleet.AggregatorConfig {
	return fleet.AggregatorConfig{Shards: durShards, StaleAfter: time.Hour, DataDir: dir, SyncInterval: noPeriodicSync}
}

// durSamples are one segment's per-cycle figures.
type durSamples struct {
	ingestPerS []float64
	recoverMs  []float64
	historyMs  []float64
	logBytes   []float64 // per push

	// traced-run extras
	mergeDirtyUs, mergeCachedUs   []float64
	replayUsPerFrame              []float64
	historyUsPerFrame             []float64
	framesReplayed, framesScanned float64
	fsyncs, rotations, appendErrs float64
	tornTails                     float64
}

// cycle runs one ingest → close → recover → history cycle into a fresh
// data directory, appending its figures to s (nil during warm-up).
func (d *durable) cycle(res *result, s *durSamples) {
	e := d.e
	if s == nil {
		s = &durSamples{}
	}
	dir, err := os.MkdirTemp(e.dataDir, "cycle-")
	if err != nil {
		res.problem("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	cyc := e.tr.begin("durable.cycle", e.root, 0)
	defer func() { e.tr.end(cyc, int64(e.sz.durHosts*e.sz.durFrames)) }()

	agg, _, err := fleet.OpenAggregator(d.config(dir))
	if err != nil {
		res.problem("open aggregator: %v", err)
		return
	}
	d.agg.Store(agg)

	// Ingest: each worker owns every procs-th host and sends frame k of
	// all its hosts before frame k+1, the order a fleet's push ticks
	// produce. The worker whose push is the durScrapeEvery-th scrapes.
	ingest := e.tr.begin("durable.ingest", cyc, 0)
	d.cause.Store(int32(ingest))
	var wg sync.WaitGroup
	var failed atomic.Int64
	var dirtyMu sync.Mutex
	url := d.srv.URL + "/fleet/push"
	t0 := time.Now()
	for w := 0; w < e.procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < e.sz.durFrames; k++ {
				for h := w; h < len(d.batches); h += e.procs {
					id := e.tr.begin("fleet.EncodeBatchBytes", ingest, w+1)
					frame, err := fleet.EncodeBatchBytes(d.batches[h][k])
					e.tr.end(id, int64(len(frame)))
					if err == nil {
						err = postFrame(d.client, url, frame)
					}
					if err != nil {
						failed.Add(1)
						continue
					}
					if d.pushes.Add(1)%int64(e.sz.durScrapeEvery) == 0 {
						id := e.tr.begin("fleet.Aggregator.ClusterSnapshot[after ingest]", ingest, w+1)
						ts := time.Now()
						agg.ClusterSnapshot(false)
						us := float64(time.Since(ts)) / 1e3
						e.tr.end(id, 1)
						agg.VMSnapshots(false)
						dirtyMu.Lock()
						s.mergeDirtyUs = append(s.mergeDirtyUs, us)
						dirtyMu.Unlock()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ingestWall := time.Since(t0)
	e.tr.end(ingest, int64(e.sz.durHosts*e.sz.durFrames))
	pushes := int64(e.sz.durHosts * e.sz.durFrames)
	scrapes := pushes / int64(e.sz.durScrapeEvery)
	res.op(pushes+scrapes, failed.Load())
	if failed.Load() > 0 {
		res.problem("%d of %d pushes failed", failed.Load(), pushes)
	}

	if e.tr.active() {
		for i := 0; i < 5; i++ {
			ts := time.Now()
			agg.ClusterSnapshot(false)
			s.mergeCachedUs = append(s.mergeCachedUs, float64(time.Since(ts))/1e3)
		}
	}
	before := agg.ClusterSnapshot(true)
	ls := agg.LogStats()
	if err := agg.Close(); err != nil {
		res.problem("close aggregator: %v", err)
	}

	// Recover: boot replay of every frame just logged.
	id := e.tr.begin("fleet.OpenAggregator", cyc, 0)
	t0 = time.Now()
	agg, rst, err := fleet.OpenAggregator(d.config(dir))
	recoverWall := time.Since(t0)
	e.tr.end(id, rst.Frames)
	res.op(1, 0)
	if err != nil {
		res.op(0, 1)
		res.problem("recover: %v", err)
		return
	}
	defer agg.Close()
	d.agg.Store(agg)
	after := agg.ClusterSnapshot(true)
	switch {
	case rst.Frames != pushes || rst.Skipped != 0 || rst.TornTails != 0:
		res.problem("recover replayed %d frames (%d skipped, %d torn tails), %d were logged", rst.Frames, rst.Skipped, rst.TornTails, pushes)
	case !after.StateEquals(before):
		res.problem("recovered cluster snapshot differs from the one before Close")
	}

	// History: the full span first (gated against final − first state),
	// then narrower windows ending at later and later frames.
	last := d.base.Add(time.Duration(e.sz.durFrames-1) * durFrameStep)
	for q := 0; q < e.sz.durHistoryQuery; q++ {
		from, to := d.base, last
		if q > 0 {
			from = d.base.Add(time.Duration(q) * durFrameStep)
			to = from.Add(time.Duration(1+q%(e.sz.durFrames-1)) * durFrameStep)
		}
		id := e.tr.begin("fleet.Aggregator.History", cyc, 0)
		t0 = time.Now()
		win, err := agg.History(from, to)
		dt := time.Since(t0)
		res.op(1, 0)
		if err != nil {
			e.tr.end(id, 0)
			res.op(0, 1)
			res.problem("history: %v", err)
			continue
		}
		e.tr.end(id, win.Frames)
		if q == 0 && !sameCounts(win.Cluster, after.Sub(d.first)) {
			res.problem("full-span history window differs from final − first state")
		}
		s.historyMs = append(s.historyMs, float64(dt)/1e6)
		s.historyUsPerFrame = append(s.historyUsPerFrame, float64(dt)/1e3/float64(win.Frames))
		s.framesScanned = float64(win.Frames)
	}

	s.ingestPerS = append(s.ingestPerS, float64(pushes)/ingestWall.Seconds())
	s.recoverMs = append(s.recoverMs, float64(recoverWall)/1e6)
	s.logBytes = append(s.logBytes, float64(ls.AppendBytes)/float64(ls.Appends))
	s.replayUsPerFrame = append(s.replayUsPerFrame, float64(recoverWall)/1e3/float64(rst.Frames))
	s.framesReplayed = float64(rst.Frames)
	s.fsyncs, s.rotations, s.appendErrs = float64(ls.Fsyncs), float64(ls.Rotations), float64(ls.AppendErrors)
	s.tornTails = float64(rst.TornTails)
	if ls.AppendErrors > 0 {
		res.problem("%d log appends failed", ls.AppendErrors)
	}
}

// sameCounts compares two snapshots' counters and every histogram's bins,
// total and sum. A windowed merge cannot recover exact extrema (Sub keeps
// the later snapshot's), so Min/Max are left out, unlike StateEquals.
func sameCounts(a, b *core.Snapshot) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Commands != b.Commands || a.NumReads != b.NumReads || a.NumWrites != b.NumWrites ||
		a.ReadBytes != b.ReadBytes || a.WriteBytes != b.WriteBytes || a.Errors != b.Errors {
		return false
	}
	for _, m := range core.Metrics() {
		classes := []core.Class{core.All, core.Reads, core.Writes}
		if m == core.MetricSeekWindowed {
			classes = classes[:1]
		}
		for _, cl := range classes {
			ha, hb := a.Histogram(m, cl), b.Histogram(m, cl)
			if ha.Total != hb.Total || ha.Sum != hb.Sum || len(ha.Counts) != len(hb.Counts) {
				return false
			}
			for i := range ha.Counts {
				if ha.Counts[i] != hb.Counts[i] {
					return false
				}
			}
		}
	}
	return true
}

func (d *durable) run(res *result, budget time.Duration) *durSamples {
	s := &durSamples{}
	deadline := time.Now().Add(budget)
	for len(s.recoverMs) < d.e.sz.minSamples || time.Now().Before(deadline) {
		d.cycle(res, s)
		if !res.Correct {
			break
		}
	}
	return s
}

func (d *durable) measure(e *env, res *result) {
	untraced, s := segments(e, func(budget time.Duration) *durSamples { return d.run(res, budget) })
	if len(s.recoverMs) == 0 || len(s.historyMs) == 0 {
		return
	}
	queries := make([]float64, len(s.historyMs))
	for i, ms := range s.historyMs {
		queries[i] = 1e3 / ms
	}
	res.putMedian("throughput_per_s", s.ingestPerS)
	res.putMedian("alt_throughput_per_s", queries)
	res.putMedian("latency_ms_p50", s.recoverMs)
	res.putMedian("bytes_per_op", s.logBytes)
	if e.tr == nil {
		return
	}

	if srvNs, _, srvN := indexSpans(e.tr.finished()).under(e.root, "fleet.aggregator.serve"); srvN > 0 {
		res.put("fleet.aggregator.serve_us", srvNs/float64(srvN)/1e3, nil)
	}
	res.putMedian("fleet.log.bytes_per_push", s.logBytes)
	res.put("fleet.log.fsyncs", s.fsyncs, nil)
	res.put("fleet.log.rotations", s.rotations, nil)
	res.put("fleet.log.append_errors", s.appendErrs, nil)
	res.putMedian("fleet.aggregator.merge_dirty_us", s.mergeDirtyUs)
	res.putMedian("fleet.aggregator.merge_cached_us", s.mergeCachedUs)
	res.putMedian("fleet.log.replay_us_per_frame", s.replayUsPerFrame)
	res.put("fleet.log.frames_replayed", s.framesReplayed, nil)
	res.put("fleet.log.torn_tails", s.tornTails, nil)
	res.putMedian("fleet.history.query_us_per_frame", s.historyUsPerFrame)
	res.put("fleet.history.frames_scanned", s.framesScanned, nil)
	if len(untraced.ingestPerS) > 0 {
		res.put("bench.trace_overhead_share", median(untraced.ingestPerS)/median(s.ingestPerS), nil)
	}

	// The frame probe re-renders one cycle's frames in send order.
	var frames [][]byte
	for k := 0; k < e.sz.durFrames; k++ {
		for h := range d.batches {
			frame, err := fleet.EncodeBatchBytes(d.batches[h][k])
			if err != nil {
				res.problem("frame probe: %v", err)
				return
			}
			frames = append(frames, frame)
		}
	}
	probeFrames(e, res, frames, durShards)
}
