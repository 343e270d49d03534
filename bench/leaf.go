package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

// leaf_observe is the paper's Table 2 on the leaf fast path. Each worker
// owns one vscsi.Disk and cycles a pre-generated command mix through it in
// blocks: stats off (collector attached, disabled), stats on (private
// collector), shared (every worker observes into one collector). The off
// and on blocks run on one worker with the other cores idle — the
// uncontended per-command cost, and the only form of it this class of
// sandbox repeats to within a few percent (two busy vCPUs disturb each
// other by ±15 % from run to run, whatever the program does). The shared
// blocks run all workers side by side, because contention is what they
// measure. A block's figure is wall time ÷ commands per worker.

// leafSizes are the paper's special I/O sizes in 512-byte blocks (512 B …
// 1 MiB), weighted toward the 4–64 KiB band real guests favour.
var leafSizes = []uint32{1, 2, 4, 8, 8, 8, 16, 16, 32, 64, 128, 128, 256, 512, 1024, 2048}

const leafCapacity = 1 << 30 // sectors

type leafCmd struct {
	cmd   scsi.Command
	gap   simclock.Time // virtual time since the previous command
	depth int           // outstanding commands the backend holds after this one
}

// genLeafMix draws n commands: 70/30 read/write, sequential runs broken by
// random seeks, an outstanding-I/O target that drifts over 1–32, and
// bursty inter-arrival gaps.
func genLeafMix(rng *rand.Rand, n int) []leafCmd {
	mix := make([]leafCmd, n)
	var next uint64
	depth := 1 + rng.Intn(32)
	for i := range mix {
		blocks := leafSizes[rng.Intn(len(leafSizes))]
		lba := next
		if rng.Intn(100) >= 60 || lba+uint64(blocks) >= leafCapacity {
			lba = uint64(rng.Int63n(leafCapacity - 4096))
		}
		next = lba + uint64(blocks)
		op := scsi.OpRead16
		if rng.Intn(100) < 30 {
			op = scsi.OpWrite16
		}
		switch rng.Intn(8) {
		case 0:
			if depth < 32 {
				depth++
			}
		case 1:
			if depth > 1 {
				depth--
			}
		}
		gap := simclock.Microsecond * simclock.Time(1+rng.Intn(20))
		if rng.Intn(100) < 10 {
			gap = simclock.Microsecond * simclock.Time(200+rng.Intn(20000))
		}
		mix[i] = leafCmd{cmd: scsi.Command{Op: op, LBA: lba, Blocks: blocks}, gap: gap, depth: depth}
	}
	return mix
}

// ringBackend is the instant backend: it costs no time of its own, but
// holds each command's completion until more than target commands are
// outstanding, so the collector sees the mix's OIO and latency shape
// instead of a constant zero.
type ringBackend struct {
	held   []func(scsi.Status, scsi.Sense)
	target int
}

func (b *ringBackend) Submit(_ *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
	b.held = append(b.held, done)
	for len(b.held) > b.target {
		b.completeOldest()
	}
}

func (b *ringBackend) completeOldest() {
	done := b.held[0]
	copy(b.held, b.held[1:])
	b.held = b.held[:len(b.held)-1]
	done(scsi.StatusGood, scsi.Sense{})
}

func (b *ringBackend) drain() {
	for len(b.held) > 0 {
		b.completeOldest()
	}
}

type leafWorker struct {
	eng     *simclock.Engine
	disk    *vscsi.Disk
	back    *ringBackend
	private *core.Collector
	current vscsi.Observer // the one observer attached to disk
	mix     []leafCmd
	reqs    []vscsi.Request // the mix as finished requests, for the direct collector calls of the traced run
	pos     int
	failed  int64
}

// issue pushes n commands of the mix through the disk and waits for all of
// them to complete.
func (w *leafWorker) issue(n int) {
	for i := 0; i < n; i++ {
		c := &w.mix[w.pos]
		if w.pos++; w.pos == len(w.mix) {
			w.pos = 0
		}
		w.eng.RunUntil(w.eng.Now() + c.gap)
		w.back.target = c.depth
		if _, err := w.disk.Issue(c.cmd, nil); err != nil {
			w.failed++
		}
	}
	w.back.drain()
}

// observe points the worker's disk at one observer.
func (w *leafWorker) observe(o vscsi.Observer) {
	w.disk.RemoveObserver(w.current)
	w.disk.AddObserver(o)
	w.current = o
}

type leafMode int

const (
	leafOff leafMode = iota
	leafOn
	leafShared
)

var leafSpanNames = [...]string{"vscsi.issue[stats off]", "leaf.observe[stats on]", "leaf.observe[shared collector]"}

type leaf struct {
	workers []*leafWorker
	shared  *core.Collector
	// issued counts commands per mode, for the conservation gate.
	issued [3]int64
}

func setupLeaf(e *env) (instance, error) {
	l := &leaf{shared: core.NewCollector("leaf", "shared")}
	l.shared.Enable()
	for i := 0; i < e.procs; i++ {
		rng := rand.New(rand.NewSource(e.seed*1000 + int64(i)))
		w := &leafWorker{eng: simclock.NewEngine(), back: &ringBackend{held: make([]func(scsi.Status, scsi.Sense), 0, 64)}}
		w.disk = vscsi.NewDisk(w.eng, w.back, vscsi.DiskConfig{
			VM: fmt.Sprintf("vm%d", i), Name: "scsi0:0", CapacitySectors: leafCapacity,
		})
		w.private = core.NewCollector(w.disk.VM(), w.disk.Name())
		w.observe(w.private)
		w.mix = genLeafMix(rng, e.sz.leafMixLen)
		l.workers = append(l.workers, w)
	}
	// Warm-up: one block in every mode fills the bin look-up tables, the
	// histogram stripes and the allocator's size classes.
	for _, m := range []leafMode{leafOn, leafShared, leafOff} {
		l.block(e, m, e.sz.leafBlockCmds/4)
	}
	for _, w := range l.workers {
		w.private.Reset()
		w.pos = 0
	}
	l.shared.Reset()
	l.issued = [3]int64{}
	return l, nil
}

func (l *leaf) close() {}

// setMode switches every worker's observer; done between blocks, untimed.
func (l *leaf) setMode(m leafMode) {
	for _, w := range l.workers {
		switch m {
		case leafOff:
			w.private.Disable()
			w.observe(w.private)
		case leafOn:
			w.private.Enable()
			w.observe(w.private)
		case leafShared:
			w.observe(l.shared)
		}
	}
}

// parallel runs fn once per given worker, all released together, and
// returns the wall time until the last one finished.
func (l *leaf) parallel(e *env, workers []*leafWorker, span string, n int, fn func(w *leafWorker)) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *leafWorker) {
			defer wg.Done()
			<-start
			id := e.tr.begin(span, e.root, i+1)
			fn(w)
			e.tr.end(id, int64(n))
		}(i, w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// blockWorkers is who issues in mode m: everyone into the shared
// collector, worker 0 alone otherwise.
func (l *leaf) blockWorkers(m leafMode) []*leafWorker {
	if m == leafShared {
		return l.workers
	}
	return l.workers[:1]
}

// block runs one block of n commands per issuing worker in mode m and
// returns ns per command.
func (l *leaf) block(e *env, m leafMode, n int) float64 {
	l.setMode(m)
	ws := l.blockWorkers(m)
	d := l.parallel(e, ws, leafSpanNames[m], n, func(w *leafWorker) { w.issue(n) })
	l.issued[m] += int64(n * len(ws))
	return float64(d) / float64(n)
}

// leafCycles are the per-cycle block figures, ns per command.
type leafCycles struct {
	off, on, shared []float64
	onAllocBytes    []float64 // heap bytes per command, stats on
	offAllocs       []float64 // heap objects per command, stats off
	onAllocs        []float64
}

// cycles runs off → on → shared block triples until d has passed. The
// adjacent off/on pair is Table 2's row: same machine state, same mix
// position modulo the cycle, milliseconds apart.
func (l *leaf) cycles(e *env, d time.Duration) leafCycles {
	var c leafCycles
	var ms runtime.MemStats
	allocs := func() (uint64, uint64) {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs, ms.TotalAlloc
	}
	n := e.sz.leafBlockCmds
	perBlock := float64(n) // the off and on blocks have one issuing worker
	deadline := time.Now().Add(d)
	for len(c.on) < e.sz.minSamples || time.Now().Before(deadline) {
		m0, _ := allocs()
		c.off = append(c.off, l.block(e, leafOff, n))
		m1, b1 := allocs()
		c.on = append(c.on, l.block(e, leafOn, n))
		m2, b2 := allocs()
		c.shared = append(c.shared, l.block(e, leafShared, n))
		c.offAllocs = append(c.offAllocs, float64(m1-m0)/perBlock)
		c.onAllocs = append(c.onAllocs, float64(m2-m1)/perBlock)
		c.onAllocBytes = append(c.onAllocBytes, float64(b2-b1)/perBlock)
	}
	return c
}

func (l *leaf) measure(e *env, res *result) {
	untraced, c := segments(e, func(d time.Duration) leafCycles { return l.cycles(e, d) })

	overheadMs := make([]float64, len(c.on)) // (on − off) ns/cmd == ms per 1M commands
	onRate := make([]float64, len(c.on))
	sharedRate := make([]float64, len(c.on))
	for i := range c.on {
		overheadMs[i] = c.on[i] - c.off[i]
		onRate[i] = 1e9 / c.on[i]
		sharedRate[i] = 1e9 / c.shared[i]
	}
	res.putMedian("throughput_per_s", onRate)
	res.putMedian("alt_throughput_per_s", sharedRate)
	res.putMedian("latency_ms_p50", overheadMs)
	res.putMedian("bytes_per_op", c.onAllocBytes)

	var failed int64
	for _, w := range l.workers {
		failed += w.failed
	}
	res.op(l.issued[leafOff]+l.issued[leafOn]+l.issued[leafShared], failed)
	l.gate(res)

	if e.tr != nil {
		l.layers(e, res, c, untraced)
	}
}

// gate is the conservation law: every command issued with stats on is in
// exactly one collector, and a disabled collector saw none.
func (l *leaf) gate(res *result) {
	var private int64
	for _, w := range l.workers {
		if s := w.private.Snapshot(); s != nil {
			private += s.Commands
		}
	}
	if private != l.issued[leafOn] {
		res.problem("private collectors hold %d commands, %d were issued with stats on (and %d with stats off)",
			private, l.issued[leafOn], l.issued[leafOff])
	}
	if s := l.shared.Snapshot(); s == nil || s.Commands != l.issued[leafShared] {
		res.problem("shared collector does not hold the %d commands issued into it", l.issued[leafShared])
	}
}

// layers takes the per-layer rows: the collector's two entry points and
// the bare histogram insert called directly, block by block, under spans.
func (l *leaf) layers(e *env, res *result, c, untraced leafCycles) {
	n := e.sz.leafBlockCmds
	one := l.workers[:1] // like the on block they decompose
	one[0].buildRequests()
	const probeBlocks = 5
	var onIssue, onComplete, insert []float64
	for b := 0; b < probeBlocks; b++ {
		col := core.NewCollector("probe", "scsi0:0")
		col.Enable()
		hist := histogram.NewIOLength("probe")
		d := l.parallel(e, one, "core.Collector.OnIssue", n, func(w *leafWorker) {
			for i := 0; i < n; i++ {
				col.OnIssue(&w.reqs[i%len(w.reqs)])
			}
		})
		onIssue = append(onIssue, float64(d)/float64(n))
		d = l.parallel(e, one, "core.Collector.OnComplete", n, func(w *leafWorker) {
			for i := 0; i < n; i++ {
				col.OnComplete(&w.reqs[i%len(w.reqs)])
			}
		})
		onComplete = append(onComplete, float64(d)/float64(n))
		d = l.parallel(e, one, "histogram.Histogram.Insert", n, func(w *leafWorker) {
			for i := 0; i < n; i++ {
				hist.Insert(w.reqs[i%len(w.reqs)].Cmd.Bytes())
			}
		})
		insert = append(insert, float64(d)/float64(n))
	}

	off, on, shared := median(c.off), median(c.on), median(c.shared)
	res.putMedian("vscsi.issue_off_ns", c.off)
	res.putMedian("leaf.observe_on_ns", c.on)
	res.putMedian("core.on_issue_ns", onIssue)
	res.putMedian("core.on_complete_ns", onComplete)
	res.putMedian("histogram.insert_ns", insert)
	res.put("leaf.residual_ns", on-(off+median(onIssue)+median(onComplete)), nil)
	res.put("core.shared_wait_share", shared/on, nil)
	res.putMedian("vscsi.allocs_per_cmd", c.offAllocs)
	res.put("core.allocs_per_cmd", median(c.onAllocs)-median(c.offAllocs), nil)
	res.put("bench.trace_overhead_share", on/median(untraced.on), nil)

	// Read side of the same layer: what an agent's capture pays.
	col := l.workers[0].private
	var snap []float64
	for i := 0; i < 200; i++ {
		id := e.tr.begin("core.Collector.Snapshot", e.root, 0)
		t0 := time.Now()
		s := col.Snapshot()
		snap = append(snap, float64(time.Since(t0))/1e3)
		e.tr.end(id, 1)
		if s == nil {
			res.problem("enabled collector returned no snapshot")
			break
		}
	}
	res.putMedian("core.snapshot_us", snap)

	const regDisks = 16 // one simulated host's worth (fleet_tree runs 4 VMs per host; vscsim's default is 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reg := core.NewRegistry()
	for i := 0; i < regDisks; i++ {
		rc := core.NewCollector("reg", fmt.Sprint(i))
		rc.Enable()
		rc.OnIssue(&l.workers[0].reqs[i])
		reg.Register(rc)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.put("core.bytes_per_collector", float64(after.HeapAlloc-before.HeapAlloc)/regDisks, nil)
	var regSnap []float64
	for i := 0; i < 50; i++ {
		id := e.tr.begin("core.Registry.Snapshots", e.root, 0)
		t0 := time.Now()
		got := reg.Snapshots()
		regSnap = append(regSnap, float64(time.Since(t0))/1e3)
		e.tr.end(id, int64(len(got)))
	}
	res.putMedian("core.registry_snapshots_us", regSnap)
	runtime.KeepAlive(reg)
}

// buildRequests renders the head of the worker's mix as finished requests,
// the form Collector.OnIssue and OnComplete take.
func (w *leafWorker) buildRequests() {
	n := len(w.mix)
	if n > 1<<16 {
		n = 1 << 16
	}
	w.reqs = make([]vscsi.Request, n)
	var now simclock.Time
	for i := range w.reqs {
		c := w.mix[i]
		now += c.gap
		w.reqs[i] = vscsi.Request{
			ID: uint64(i), VM: w.disk.VM(), Disk: w.disk.Name(), Cmd: c.cmd,
			IssueTime: now, SubmitTime: now,
			CompleteTime:       now + simclock.Microsecond*simclock.Time(100*c.depth),
			OutstandingAtIssue: c.depth - 1,
			Status:             scsi.StatusGood,
		}
	}
}
