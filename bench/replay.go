package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/trace"
)

// trace_replay replays one synthesized trace from two encodings of the
// same records: the native binary format and MSR-Cambridge CSV. Parsers,
// the per-disk fan-out and core's batch insert do the work; fleet and
// vscsi.Disk do none.

const (
	// msrBase is an arbitrary Windows-filetime origin for the rendered CSV.
	msrBase = 128166372000000000
	// replayBestOf is how many consecutive CSV reads make one sample of
	// latency_ms_p50, which is the fastest of them.
	replayBestOf = 8
)

type replay struct {
	recs   []trace.Record // the trace as both encodings decode it
	native []byte
	msr    []byte
	// want is the legacy replay's result per (VM, disk): the reference the
	// streaming engine must match bin for bin.
	want map[string]*core.Snapshot
	// badLines totals the lines the CSV parser skipped; the rendering is
	// well-formed, so anything but 0 fails the gate.
	badLines uint64
}

// replayDisks is the shape of the synthesized trace: which VM owns which
// disk and how each disk behaves. Like the fleet's shape (fleetShapeSeed) it
// is part of the benchmark's configuration and not of the seed.
// trace.Synthesize draws it from the seed — 2 to 12 disks, latency spreads
// of 1 µs to 30 ms — and the CSV parser's queue-depth heap and the workers'
// balance follow it, which moved alt_throughput_per_s by ±10 % from seed to
// seed before any code changed. The values span Synthesize's ranges.
var replayDisks = []struct {
	vm, disk  string
	readPct   int   // % of commands that read
	seqPct    int   // % of commands continuing a sequential run
	window    int64 // working-set span, sectors
	latBase   int64 // µs
	latSpread int64 // µs
}{
	{"vma", "disk0", 70, 80, 1 << 22, 120, 2_000},
	{"vma", "disk1", 30, 10, 1 << 14, 60, 400},
	{"vma", "disk2", 90, 50, 1 << 25, 300, 25_000},
	{"vmb", "disk0", 50, 90, 1 << 18, 200, 8_000},
	{"vmb", "disk1", 15, 30, 1 << 12, 80, 50},
	{"vmc", "disk0", 60, 0, 1 << 24, 400, 15_000},
	{"vmc", "disk1", 85, 65, 1 << 20, 150, 5_000},
	{"vmc", "disk2", 40, 40, 1 << 16, 250, 1_000},
}

// synthesize is trace.Synthesize with the shape held fixed: n block
// commands over replayDisks in strictly increasing issue order, every
// per-command choice (disk, gap, size, direction, address, latency) drawn
// from the seed. Flushes, error statuses and the recorded queue depth are
// left out, because the CSV dialect the trace passes through drops or
// reconstructs them.
func synthesize(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	next := make([]uint64, len(replayDisks))
	recs := make([]trace.Record, n)
	var now int64
	for i := range recs {
		k := rng.Intn(len(replayDisks))
		d := &replayDisks[k]
		// Bursts advance 1 µs, lulls jump by up to 300.
		if rng.Intn(100) < 30 {
			now++
		} else {
			now += 1 + int64(rng.Intn(300))
		}
		op := scsi.OpWrite16
		if rng.Intn(100) < d.readPct {
			op = scsi.OpRead16
		}
		blocks := uint32(1 << rng.Intn(9)) // 512 B .. 128 KiB
		lba := next[k]
		if rng.Intn(100) >= d.seqPct {
			lba = uint64(rng.Int63n(d.window))
		}
		next[k] = lba + uint64(blocks)
		recs[i] = trace.Record{
			Seq:            uint64(i),
			IssueMicros:    now,
			CompleteMicros: now + d.latBase + rng.Int63n(d.latSpread),
			VM:             d.vm,
			Disk:           d.disk,
			Op:             op,
			LBA:            lba,
			Blocks:         blocks,
		}
	}
	return recs
}

// renderMSR writes recs, block I/Os all, as MSR-Cambridge CSV lines.
func renderMSR(recs []trace.Record) []byte {
	var b bytes.Buffer
	b.Grow(len(recs) * 64)
	for _, r := range recs {
		kind := "Read"
		if r.Op.IsWrite() {
			kind = "Write"
		}
		b.WriteString(strconv.FormatInt(msrBase+r.IssueMicros*10, 10))
		b.WriteByte(',')
		b.WriteString(r.VM)
		b.WriteByte(',')
		b.WriteString(strings.TrimPrefix(r.Disk, "disk"))
		b.WriteByte(',')
		b.WriteString(kind)
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(r.LBA*512, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(uint64(r.Blocks)*512, 10))
		b.WriteByte(',')
		b.WriteString(strconv.FormatInt(r.LatencyMicros()*10, 10))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func diskID(vm, disk string) string { return vm + "/" + disk }

func setupReplay(e *env) (instance, error) {
	p := &replay{msr: renderMSR(synthesize(e.seed, e.sz.replayRecords))}
	// The CSV dialect reconstructs queue depth, so the trace both encodings
	// must agree on is the CSV read back, not the synthesizer's output.
	var err error
	if p.recs, err = trace.ReadAll(trace.NewMSRSource(bufio.NewReader(bytes.NewReader(p.msr)))); err != nil {
		return nil, fmt.Errorf("read back MSR rendering: %w", err)
	}
	var nat bytes.Buffer
	if err := trace.Write(&nat, p.recs); err != nil {
		return nil, fmt.Errorf("render native trace: %w", err)
	}
	p.native = nat.Bytes()

	p.want = map[string]*core.Snapshot{}
	for _, r := range p.recs {
		id := diskID(r.VM, r.Disk)
		if _, done := p.want[id]; done {
			continue
		}
		col := core.NewCollector(r.VM, r.Disk)
		col.Enable()
		trace.Replay(trace.Filter(p.recs, trace.OnlyDisk(r.VM, r.Disk)), col)
		p.want[id] = col.Snapshot()
		// The legacy replay materializes every event of the disk; collect
		// it before the next disk's, or peak_rss_mb measures how far the
		// collector happened to lag behind this loop.
		runtime.GC()
	}
	// Warm-up: one pass per encoding fills the batch pool and the bin LUTs.
	for _, f := range []trace.Format{trace.FormatNative, trace.FormatMSR} {
		if _, _, err := p.pass(e, f, 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *replay) close() {}

func (p *replay) data(f trace.Format) []byte {
	if f == trace.FormatMSR {
		return p.msr
	}
	return p.native
}

// pass is one user-visible replay: open the encoded bytes, replay them
// across the worker pool. It returns the result and the wall time.
func (p *replay) pass(e *env, f trace.Format, parent spanID) (*trace.ReplayResult, time.Duration, error) {
	t0 := time.Now()
	id := e.tr.begin("trace.Open", parent, 0)
	src, _, err := trace.Open(bytes.NewReader(p.data(f)), f)
	e.tr.end(id, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("open %v trace: %w", f, err)
	}
	id = e.tr.begin("trace.ReplayParallel", parent, 0)
	res, err := trace.ReplayParallel(src, trace.ReplayConfig{Workers: e.procs})
	e.tr.end(id, int64(len(p.recs)))
	d := time.Since(t0)
	if err != nil {
		return nil, d, fmt.Errorf("replay %v trace: %w", f, err)
	}
	if bl, ok := src.(interface{ BadLines() uint64 }); ok && bl.BadLines() > 0 {
		p.badLines += bl.BadLines()
		return res, d, fmt.Errorf("%v parser skipped %d lines of a well-formed trace", f, bl.BadLines())
	}
	return res, d, nil
}

// verify holds a replay result against the legacy reference, disk by disk.
func (p *replay) verify(res *trace.ReplayResult) error {
	if res.Stats.Records != uint64(len(p.recs)) {
		return fmt.Errorf("replayed %d records of %d", res.Stats.Records, len(p.recs))
	}
	if res.Stats.OrderViolations != 0 {
		return fmt.Errorf("%d issue-order violations in an ordered trace", res.Stats.OrderViolations)
	}
	if len(res.Collectors()) != len(p.want) {
		return fmt.Errorf("replay produced %d disks, reference has %d", len(res.Collectors()), len(p.want))
	}
	for _, c := range res.Collectors() {
		if !c.Snapshot().StateEquals(p.want[diskID(c.VM(), c.Disk())]) {
			return fmt.Errorf("disk %s/%s differs from the legacy per-disk replay", c.VM(), c.Disk())
		}
	}
	return nil
}

// drain reads src to its end on the calling goroutine and checks the count.
func (p *replay) drain(src trace.RecordSource) error {
	var rec trace.Record
	var got int
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		got++
	}
	if got != len(p.recs) {
		return fmt.Errorf("drained %d records of %d", got, len(p.recs))
	}
	return nil
}

// parse is what vscsitrace convert, dump and analyze do before anything
// else: open the encoded bytes and read every record, on one goroutine.
func (p *replay) parse(f trace.Format) error {
	src, _, err := trace.Open(bytes.NewReader(p.data(f)), f)
	if err != nil {
		return err
	}
	return p.drain(src)
}

type replayPasses struct {
	nativeMs, msrMs []float64
	parseMs         []float64 // CSV read to its end, one goroutine
	allocBytes      []float64 // per native record
	allocs          []float64
}

// passes takes a native pass, an MSR pass and a single-threaded read of the
// CSV in turn until d has passed. Both encodings decode to the same records,
// so the two verified results are also equal to each other.
func (p *replay) passes(e *env, res *result, d time.Duration) replayPasses {
	var out replayPasses
	var ms runtime.MemStats
	n := float64(len(p.recs))
	deadline := time.Now().Add(d)
	for len(out.nativeMs) < e.sz.minSamples || time.Now().Before(deadline) {
		for _, f := range []trace.Format{trace.FormatNative, trace.FormatMSR} {
			runtime.ReadMemStats(&ms)
			m0, b0 := ms.Mallocs, ms.TotalAlloc
			id := e.tr.begin("replay.pass["+f.String()+"]", e.root, 0)
			got, dt, err := p.pass(e, f, id)
			e.tr.end(id, int64(len(p.recs)))
			res.op(1, 0)
			if err == nil {
				err = p.verify(got)
			}
			if err != nil {
				res.op(0, 1)
				res.problem("%v", err)
				return out // a wrong result would only repeat
			}
			if f == trace.FormatMSR {
				out.msrMs = append(out.msrMs, float64(dt)/1e6)
				continue
			}
			runtime.ReadMemStats(&ms)
			out.nativeMs = append(out.nativeMs, float64(dt)/1e6)
			out.allocBytes = append(out.allocBytes, float64(ms.TotalAlloc-b0)/n)
			out.allocs = append(out.allocs, float64(ms.Mallocs-m0)/n)
		}
		id := e.tr.begin("trace.MSRSource.Next", e.root, 0)
		t0 := time.Now()
		err := p.parse(trace.FormatMSR)
		dt := time.Since(t0)
		e.tr.end(id, int64(len(p.recs)))
		res.op(1, 0)
		if err != nil {
			res.op(0, 1)
			res.problem("read the CSV trace: %v", err)
			return out
		}
		out.parseMs = append(out.parseMs, float64(dt)/1e6)
	}
	return out
}

// best is the largest of v: the rate of the run's fastest pass.
func best(v []float64) float64 { return summarize(v).Max }

// fastestOf cuts v into consecutive groups of k and returns each group's
// smallest value; a short tail joins no group unless it is all there is.
func fastestOf(k int, v []float64) []float64 {
	if len(v) < k {
		k = len(v)
	}
	var out []float64
	for ; len(v) >= k && k > 0; v = v[k:] {
		out = append(out, summarize(v[:k]).Min)
	}
	return out
}

func (p *replay) measure(e *env, res *result) {
	untraced, ps := segments(e, func(d time.Duration) replayPasses { return p.passes(e, res, d) })
	n := float64(len(p.recs))
	rate := func(ms []float64) []float64 {
		out := make([]float64, len(ms))
		for i, v := range ms {
			out[i] = n / (v / 1e3)
		}
		return out
	}
	if len(ps.parseMs) == 0 {
		return // a pass failed; the problems are recorded
	}
	// The sandbox's vCPUs share their cores with other guests: a 1 ms
	// compute loop takes 0.92 ms or 1.7 ms, nothing between, and the share
	// of slow ones in a ten-second window wanders from a tenth to nine
	// tenths. A median over passes flips between the two modes as that
	// share crosses a half — run medians of one binary moved by up to 30 %
	// on the CSV pass, which couples both vCPUs in one pipeline, however
	// long the run — while the fast mode itself repeats to 2–9 %. The
	// neighbour only ever adds time, so the rates are those of the run's
	// fastest pass, and a sample of the timing is the fastest of
	// replayBestOf consecutive reads; the distributions ride along.
	native, msr := rate(ps.nativeMs), rate(ps.msrMs)
	res.put("throughput_per_s", best(native), native)
	res.put("alt_throughput_per_s", best(msr), msr)
	res.putMedian("latency_ms_p50", fastestOf(replayBestOf, ps.parseMs))
	res.putMedian("bytes_per_op", ps.allocBytes)

	if e.tr != nil {
		p.layers(e, res, ps)
		if len(untraced.nativeMs) > 0 {
			res.put("bench.trace_overhead_share", median(ps.nativeMs)/median(untraced.nativeMs), nil)
		}
	}
}

// layers splits a pass into its parts by calling each one alone: the native
// parser drained into a sink (the CSV parser's drain is in the timed loop),
// the engine fed from memory with one worker and with all of them, and the
// issue-order merge on its own.
func (p *replay) layers(e *env, res *result, ps replayPasses) {
	n := float64(len(p.recs))
	const probes = 3
	timed := func(span string, fn func() error) float64 {
		var ns []float64
		for i := 0; i < probes; i++ {
			id := e.tr.begin(span, e.root, 0)
			t0 := time.Now()
			err := fn()
			ns = append(ns, float64(time.Since(t0))/n)
			e.tr.end(id, int64(len(p.recs)))
			if err != nil {
				res.problem("%s: %v", span, err)
			}
		}
		return median(ns)
	}
	engine := func(workers int) func() error {
		return func() error {
			got, err := trace.ReplayParallel(trace.NewSliceSource(p.recs), trace.ReplayConfig{Workers: workers})
			if err != nil {
				return err
			}
			return p.verify(got)
		}
	}
	res.put("trace.parse_native_ns_per_rec", timed("trace.NativeSource.Next", func() error { return p.parse(trace.FormatNative) }), nil)
	res.put("trace.parse_msr_ns_per_rec", median(ps.parseMs)*1e6/n, nil)
	res.put("trace.replay_w1_ns_per_rec", timed("trace.ReplayParallel[1 worker]", engine(1)), nil)
	res.put("trace.replay_wN_ns_per_rec", timed("trace.ReplayParallel[all workers]", engine(e.procs)), nil)
	var violations uint64
	res.put("trace.merge_ns_per_rec", timed("trace.MergeSource.Next", func() error {
		m := trace.NewMergeSource(trace.NewSliceSource(p.recs), 0)
		err := p.drain(m)
		violations += m.Violations()
		return err
	}), nil)
	res.putMedian("trace.allocs_per_rec", ps.allocs)
	res.put("trace.reorder_violations", float64(violations), nil)
	res.put("trace.bad_lines", float64(p.badLines), nil)
}
