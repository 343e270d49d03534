package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"vscsistats/internal/fs"
	"vscsistats/internal/ring"
	"vscsistats/internal/simclock"
)

// DBT2Config parameterizes the DBT-2/PostgreSQL model (§4.2): "DBT-2 was
// setup with a scaling factor of 250 (warehouses) with 50 connections ...
// the database was sized at 50GB ... shared_buffers to 2000 and
// checkpoint_segments to 12."
type DBT2Config struct {
	// Warehouses is the TPC-C scaling factor.
	Warehouses int
	// Connections is the number of concurrent database connections.
	Connections int
	// DatabaseBytes sizes the table heap file.
	DatabaseBytes int64
	// WALBytes sizes the write-ahead-log file.
	WALBytes int64
	// SharedBuffers is the buffer pool size in 8 KB pages (PostgreSQL's
	// shared_buffers).
	SharedBuffers int
	// BgWriterDepth is the write concurrency of the background
	// writer/checkpointer — the reason Figure 4(c) shows writes arriving
	// with ~32 already outstanding.
	BgWriterDepth int
	// CheckpointInterval spaces checkpoint cycles; the resulting dirty-page
	// bursts drive the ±15% I/O rate variation of Figure 4(d).
	CheckpointInterval simclock.Time
	// ThinkTime is the per-transaction keying/think delay.
	ThinkTime simclock.Time
	// HotPages sizes the "recent orders" region: TPC-C inserts and updates
	// cluster near the append frontier of the orders/new-order tables,
	// which is where Figure 4(a)'s bursts of write locality come from.
	HotPages int64
	// HotFraction is the share of page accesses directed at the hot
	// region.
	HotFraction float64
	// BgRound is the background writer's cadence (PostgreSQL's
	// bgwriter_delay): every round it issues up to BgRoundPages dirty
	// pages as one burst at BgWriterDepth concurrency. Burst-at-depth is
	// why Figure 4(c) shows writes "always issuing around 32
	// simultaneously" while reads stay shallow between bursts.
	BgRound      simclock.Time
	BgRoundPages int
	// Seed drives transaction mix and page selection.
	Seed int64
}

// DefaultDBT2Config mirrors the paper's setup, with sizes scaled to keep a
// two-minute simulation tractable while preserving the miss-dominated
// buffer-pool ratio (16 MB of buffers against a multi-GB heap).
func DefaultDBT2Config() DBT2Config {
	return DBT2Config{
		Warehouses:         250,
		Connections:        50,
		DatabaseBytes:      8 << 30,
		WALBytes:           1 << 30,
		SharedBuffers:      2000,
		BgWriterDepth:      32,
		CheckpointInterval: 30 * simclock.Second,
		ThinkTime:          100 * simclock.Millisecond,
		HotPages:           512,
		HotFraction:        0.35,
		BgRound:            200 * simclock.Millisecond,
		BgRoundPages:       96,
		Seed:               1,
	}
}

const dbPageBytes = 8 << 10 // PostgreSQL page size

// txnProfile describes one TPC-C transaction type's page footprint.
type txnProfile struct {
	name    string
	weight  int // per mille
	reads   int // heap pages touched
	dirties int // heap pages dirtied
}

// tpccMix is the standard TPC-C transaction mix.
var tpccMix = []txnProfile{
	{"new-order", 450, 10, 8},
	{"payment", 430, 4, 3},
	{"order-status", 40, 12, 0},
	{"delivery", 40, 20, 15},
	{"stock-level", 40, 60, 0},
}

// DBT2 models PostgreSQL running the TPC-C-derived DBT-2 workload: worker
// connections read heap pages through a small buffer pool, commit via
// sequential WAL appends, and a background writer destages dirty pages with
// fixed concurrency.
type DBT2 struct {
	cfg  DBT2Config
	eng  *simclock.Engine
	fsys fs.FS
	rng  *rand.Rand

	heap *fs.File
	wal  *fs.File

	pool     *bufferPool
	dirty    []int64 // dirty heap page numbers, FIFO
	dirtySet map[int64]bool
	hotBase  int64 // moving frontier of the hot (recent-orders) region
	bgActive int
	bgBudget int // pages remaining in the current bgwriter round
	bgTick   *simclock.Ticker
	running  bool
	stats    Stats
	txns     int64
	byType   map[string]int64
	ckptTick *simclock.Ticker
	inCkpt   bool
}

// NewDBT2 prepares the model; Setup creates its files.
func NewDBT2(eng *simclock.Engine, fsys fs.FS, cfg DBT2Config) *DBT2 {
	if cfg.Connections <= 0 || cfg.SharedBuffers <= 0 || cfg.BgWriterDepth <= 0 {
		panic("workload: invalid DBT2 config")
	}
	return &DBT2{
		cfg: cfg, eng: eng, fsys: fsys,
		rng:      simclock.NewRand(cfg.Seed),
		pool:     newBufferPool(cfg.SharedBuffers),
		dirtySet: make(map[int64]bool),
		byType:   make(map[string]int64),
	}
}

// Name implements Generator.
func (d *DBT2) Name() string { return "dbt2" }

// Transactions reports committed transactions, total and by type.
func (d *DBT2) Transactions() (int64, map[string]int64) { return d.txns, d.byType }

// Setup creates the heap and WAL files.
func (d *DBT2) Setup() error {
	heap, err := d.fsys.Create("pgdata", d.cfg.DatabaseBytes)
	if err != nil {
		return fmt.Errorf("dbt2 setup: %w", err)
	}
	heap.Prefill()
	wal, err := d.fsys.Create("pg_xlog", d.cfg.WALBytes)
	if err != nil {
		return fmt.Errorf("dbt2 setup: %w", err)
	}
	d.heap, d.wal = heap, wal
	return nil
}

// Start launches the worker connections, background writer and checkpointer.
func (d *DBT2) Start() {
	d.running = true
	for c := 0; c < d.cfg.Connections; c++ {
		c := c
		// Stagger connection start to avoid a synchronized burst.
		d.eng.After(simclock.Time(c)*simclock.Millisecond, func(simclock.Time) {
			d.runTxn(simclock.NewRand(d.cfg.Seed + int64(c)*104729))
		})
	}
	if d.cfg.CheckpointInterval > 0 {
		d.ckptTick = simclock.NewTicker(d.eng, d.cfg.CheckpointInterval, func(simclock.Time) {
			// Checkpoints flush the whole backlog in page order, the way
			// the kernel writeback path submits — consecutive writes land
			// near each other, producing Figure 4(a)'s bursts of
			// locality, and the extra volume makes the I/O rate breathe
			// (Figure 4(d)).
			sort.Slice(d.dirty, func(i, j int) bool { return d.dirty[i] < d.dirty[j] })
			d.inCkpt = true
			d.bgBudget = len(d.dirty)
			d.pumpBgWriter()
		})
	}
	if d.cfg.BgRound > 0 && d.cfg.BgRoundPages > 0 {
		d.bgTick = simclock.NewTicker(d.eng, d.cfg.BgRound, func(simclock.Time) {
			if d.bgBudget < d.cfg.BgRoundPages {
				d.bgBudget = d.cfg.BgRoundPages
			}
			d.pumpBgWriter()
		})
	}
}

// Stop ceases new transactions and background writes.
func (d *DBT2) Stop() {
	d.running = false
	if d.ckptTick != nil {
		d.ckptTick.Stop()
	}
	if d.bgTick != nil {
		d.bgTick.Stop()
	}
}

// Stats implements Generator.
func (d *DBT2) Stats() Stats { return d.stats }

// runTxn executes one transaction on a connection, then schedules the next.
func (d *DBT2) runTxn(rng *rand.Rand) {
	if !d.running {
		return
	}
	prof := d.pickTxn(rng)
	start := d.eng.Now()
	pages := d.heap.Size() / dbPageBytes
	// Phase 1: read the transaction's heap pages through the buffer pool,
	// sequentially within the transaction (dependent lookups).
	var readNext func(i int)
	readNext = func(i int) {
		if i >= prof.reads {
			// Phase 2: dirty pages stay in the pool for the bgwriter; the
			// commit is a synchronous WAL append.
			for w := 0; w < prof.dirties; w++ {
				page := d.pickPage(rng, pages)
				d.pool.insert(page)
				if !d.dirtySet[page] {
					d.dirtySet[page] = true
					d.dirty = append(d.dirty, page)
				}
			}
			d.appendWAL(func() {
				d.txns++
				d.byType[prof.name]++
				d.stats.Ops++
				d.stats.TotalLatency += d.eng.Now() - start
				d.pumpBgWriter()
				d.eng.After(d.cfg.ThinkTime, func(simclock.Time) { d.runTxn(rng) })
			})
			return
		}
		page := d.pickPage(rng, pages)
		if d.pool.lookup(page) {
			readNext(i + 1)
			return
		}
		d.heap.Read(page*dbPageBytes, dbPageBytes, func(error) {
			d.pool.insert(page)
			d.stats.Bytes += dbPageBytes
			readNext(i + 1)
		})
	}
	readNext(0)
}

// pickPage selects a heap page: mostly uniform over the table space, with
// a configurable share clustered in the slowly advancing hot region.
func (d *DBT2) pickPage(rng *rand.Rand, pages int64) int64 {
	hot := d.cfg.HotPages
	if hot > 0 && rng.Float64() < d.cfg.HotFraction {
		page := d.hotBase + rng.Int63n(hot)
		// The frontier creeps forward as orders accumulate.
		if rng.Intn(64) == 0 {
			d.hotBase++
		}
		return page % pages
	}
	return rng.Int63n(pages)
}

func (d *DBT2) pickTxn(rng *rand.Rand) txnProfile {
	r := rng.Intn(1000)
	for _, p := range tpccMix {
		if r < p.weight {
			return p
		}
		r -= p.weight
	}
	return tpccMix[0]
}

// appendWAL writes one 8 KB WAL block synchronously, recycling the log.
func (d *DBT2) appendWAL(done func()) {
	if d.wal.Size()+dbPageBytes > d.wal.Extent() {
		_ = d.wal.Truncate(0)
	}
	d.wal.Append(dbPageBytes, true, func(error) { done() })
}

// pumpBgWriter keeps up to BgWriterDepth dirty-page writes in flight while
// a checkpoint cycle is draining the dirty backlog. This burst-at-depth
// behaviour is the mechanism behind PostgreSQL "always issuing around 32
// writes simultaneously" in Figure 4(c).
func (d *DBT2) pumpBgWriter() {
	if !d.running {
		return
	}
	for d.bgActive < d.cfg.BgWriterDepth && d.bgBudget > 0 && len(d.dirty) > 0 {
		page := d.dirty[0]
		d.dirty = d.dirty[1:]
		delete(d.dirtySet, page)
		d.bgActive++
		d.bgBudget--
		d.heap.Write(page*dbPageBytes, dbPageBytes, true, func(error) {
			d.bgActive--
			d.stats.Bytes += dbPageBytes
			if len(d.dirty) == 0 || d.bgBudget == 0 {
				d.inCkpt = false
			}
			d.pumpBgWriter()
		})
	}
}

// bufferPool is PostgreSQL's shared_buffers: an LRU over heap page numbers.
type bufferPool struct {
	pages  map[int64]struct{}
	fifo   *ring.Ring[int64] // eviction order (approximation)
	hits   uint64
	misses uint64
}

func newBufferPool(capacity int) *bufferPool {
	return &bufferPool{pages: make(map[int64]struct{}), fifo: ring.New[int64](capacity)}
}

// lookup reports residency (clock-style; promotion is approximated by
// reinsertion).
func (b *bufferPool) lookup(page int64) bool {
	if _, ok := b.pages[page]; ok {
		b.hits++
		return true
	}
	b.misses++
	return false
}

// insert makes a page resident, evicting in FIFO/clock order.
func (b *bufferPool) insert(page int64) {
	if _, ok := b.pages[page]; ok {
		return
	}
	if victim, evicted := b.fifo.Push(page); evicted {
		delete(b.pages, victim)
	}
	b.pages[page] = struct{}{}
}
