package fleet

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/fleetobs"
)

// The segment log is the aggregator's durability layer: every applied wire
// frame — fulls and deltas alike — is appended, as the bytes that arrived, to
// a per-shard chain of segment files under the data dir:
//
//	<dir>/shard-0007/0000000000000003.seg
//
// A segment is nothing but concatenated wire frames, with no index and no
// manifest: ordering is append order, per-host sequencing the batch Seq,
// time its SentUnixNano, and each frame's trailer checks its bytes.
// Replaying a shard's segments in numeric order through the aggregator's
// strict apply rules reconstructs each host's state exactly.
//
// Failure semantics, in replay order per segment chain:
//
//   - a frame that ends early (EOF inside head/header/payload —
//     ErrTruncatedFrame) in the LAST segment is a torn tail: the crash
//     landed mid-write. So is a last frame that ends at EOF but fails its
//     checksum (ErrChecksum): a partly flushed write. The file is truncated
//     back to the last whole frame and the log continues from there.
//   - the same conditions in any earlier segment, a checksum failure with
//     bytes after it, any other decode failure anywhere (bad magic, a
//     payload that contradicts its encoding, a frame of a retired
//     generation), or a whole frame that fails Validate, is
//     corruption: the log refuses to open rather than serve wrong numbers,
//     naming the segment, the frame's byte offset and, once its header is
//     read, its host.
//   - a delta that cannot apply (its base fell to retention or compaction)
//     is skipped with a counter — the information is gone, not wrong. So
//     is a frame of another binary generation's bin layout (an unknown
//     layout id).
//   - *.tmp files (compaction interrupted before its atomic rename) are
//     deleted on open; the segments they would have replaced are intact.
//   - a compaction interrupted after the rename but before the old
//     segments were deleted leaves duplicates: old frames replay first,
//     the compacted fulls (highest segment number, newest sequences)
//     replay last and win under the no-rollback rule.
//
// Appends are fsync-batched: a write syncs only when syncInterval has
// passed since the last sync (every append when syncInterval < 0). A
// kill -9 loses nothing (written bytes survive in the page cache); the
// batching bounds what a power failure takes, and the torn-tail rule
// cleans up a partial sector flush.
const (
	segSuffix = ".seg"
	tmpSuffix = ".tmp"

	defaultSegmentBytes    = 4 << 20
	defaultSyncInterval    = 100 * time.Millisecond
	defaultCompactSegments = 8
)

// logConfig is the segment log's tuning, extracted from AggregatorConfig.
type logConfig struct {
	dir             string
	segmentBytes    int64
	syncInterval    time.Duration
	retention       time.Duration
	compactSegments int
	// obs receives fsync/compaction latency samples and structural events
	// (rotation, retention, compaction, torn tail); nil disables both.
	obs *fleetobs.Tracker
}

// segmentInfo describes one segment file.
type segmentInfo struct {
	num    uint64
	path   string
	bytes  int64
	frames int64
	// newest is the max SentUnixNano of any frame in the segment — the
	// clock retention compares against.
	newest int64
}

// logShard is one shard's segment chain. Its mutex orders appends,
// rotation and compaction; reads (history scans) only take it long enough
// to copy the current path list.
type logShard struct {
	mu       sync.Mutex
	dirIdx   int
	dir      string
	sealed   []segmentInfo
	active   segmentInfo
	f        *os.File // nil until the first append after open/rotation
	lastSync time.Time
}

// segmentLog is the aggregator's crash-safe frame store: one logShard per
// aggregator shard, plus any orphan shard dirs left by a previous run with
// a different shard count (replayed, then compacted away).
type segmentLog struct {
	cfg    logConfig
	shards []*logShard // indexed by current shard id
	// orphans are shard dirs on disk beyond the configured shard count.
	// Their frames replay like any others (routing is by host hash, not by
	// dir); after replay the aggregator rewrites every host's state into
	// its current home and removes them.
	orphans []*logShard

	appends     atomic.Int64
	appendBytes atomic.Int64
	appendErrs  atomic.Int64
	fsyncs      atomic.Int64
	rotations   atomic.Int64
	compactions atomic.Int64
	retired     atomic.Int64
	replayed    atomic.Int64
	tornTails   atomic.Int64
	// historyDropped counts corrupt frames History dropped.
	historyDropped atomic.Int64
}

func (c logConfig) withDefaults() logConfig {
	if c.segmentBytes <= 0 {
		c.segmentBytes = defaultSegmentBytes
	}
	if c.syncInterval == 0 {
		c.syncInterval = defaultSyncInterval
	}
	if c.compactSegments == 0 {
		c.compactSegments = defaultCompactSegments
	}
	return c
}

func shardDirName(idx int) string { return fmt.Sprintf("shard-%04d", idx) }

func segPath(dir string, num uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d%s", num, segSuffix))
}

// openSegmentLog prepares the on-disk layout: the shard dirs exist, every
// segment is listed (sizes come later, from replay), and stray *.tmp files
// from an interrupted compaction are gone. The shard dirs are opened
// concurrently; the error is the lowest failing dir's. No frame is read
// here: replay does that, because reading and applying are one pass.
func openSegmentLog(cfg logConfig, shards int) (*segmentLog, error) {
	cfg = cfg.withDefaults()
	l := &segmentLog{cfg: cfg, shards: make([]*logShard, shards)}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: log dir: %w", err)
	}
	if err := eachDir(shards, func(i int) (err error) {
		l.shards[i], err = openLogShard(filepath.Join(cfg.dir, shardDirName(i)), i)
		return err
	}); err != nil {
		return nil, err
	}
	// Discover orphan dirs from a run with more shards.
	entries, err := os.ReadDir(cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: log dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "shard-"))
		if err != nil || idx < shards {
			continue
		}
		sh, err := openLogShard(filepath.Join(cfg.dir, e.Name()), idx)
		if err != nil {
			return nil, err
		}
		l.orphans = append(l.orphans, sh)
	}
	sort.Slice(l.orphans, func(i, j int) bool { return l.orphans[i].dirIdx < l.orphans[j].dirIdx })
	return l, nil
}

// openLogShard lists a shard dir's segments (creating the dir if needed)
// and removes leftover *.tmp files. The highest-numbered segment becomes
// the active one; its size and frame count are filled in by replay.
func openLogShard(dir string, idx int) (*logShard, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: log shard dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: log shard dir: %w", err)
	}
	sh := &logShard{dirIdx: idx, dir: dir}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// An interrupted compaction never renamed this into place; the
			// segments it would have replaced are still whole.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		num, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: log segment %q: bad name", filepath.Join(dir, name))
		}
		sh.sealed = append(sh.sealed, segmentInfo{num: num, path: filepath.Join(dir, name)})
	}
	sort.Slice(sh.sealed, func(i, j int) bool { return sh.sealed[i].num < sh.sealed[j].num })
	if n := len(sh.sealed); n > 0 {
		sh.active = sh.sealed[n-1]
		sh.sealed = sh.sealed[:n-1]
	} else {
		sh.active = segmentInfo{num: 1, path: segPath(dir, 1)}
	}
	return sh, nil
}

// eachDir runs fn(0..n-1) on min(GOMAXPROCS, n) goroutines, handing out
// indexes in order. A failure stops the handing out, but every index handed
// out runs, and those below a failed one were handed out before it: the
// error returned is always that of the lowest failing index.
func eachDir(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...) // the first non-nil
}

// replay hands every frame of every shard dir (orphans included) to apply,
// which reports whether it skipped the frame (one it cannot use, not
// evidence of corruption). A torn tail on a chain's last segment is truncated
// to the last whole frame; any other decode failure aborts. Dirs replay
// concurrently, each in order on one goroutine and segmentWalker, so apply
// must be safe for that. Segment sizes, frame counts and newest-times are
// (re)established as a side effect: replay is the log's one full read.
func (l *segmentLog) replay(apply func(dirIdx int, f *frame) (skipped bool, err error)) (ReplayStats, error) {
	dirs := append(append([]*logShard(nil), l.shards...), l.orphans...)
	per := make([]ReplayStats, len(dirs))
	err := eachDir(len(dirs), func(i int) error {
		w := walkers.Get().(*segmentWalker)
		defer walkers.Put(w)
		sh := dirs[i]
		for j := range sh.sealed {
			if err := l.replaySegment(w, sh, &sh.sealed[j], false, &per[i], apply); err != nil {
				return err
			}
		}
		return l.replaySegment(w, sh, &sh.active, true, &per[i], apply)
	})
	var st ReplayStats
	for _, d := range per {
		st.Frames += d.Frames
		st.Skipped += d.Skipped
		st.TornTails += d.TornTails
	}
	return st, err
}

func (l *segmentLog) replaySegment(w *segmentWalker, sh *logShard, seg *segmentInfo, last bool, st *ReplayStats, apply func(int, *frame) (bool, error)) error {
	var good int64 // the bytes of whole frames
	err := w.walk(seg.path, func(fr *frame, err error) error {
		var unknown *UnknownLayoutError
		if errors.As(err, &unknown) {
			// A whole frame we cannot read the bins of: its header still
			// dates the segment, and it is not evidence of corruption.
			err = nil
		}
		// A whole last frame whose bytes do not sum to its trailer is torn
		// too: a crash can leave a partly flushed write, not only a short one.
		if errors.Is(err, ErrTruncatedFrame) || errors.Is(err, ErrChecksum) && w.atEOF() {
			if !last {
				return fmt.Errorf("fleet: log segment %s torn mid-chain at byte %d (only the newest segment may have a torn tail): %w", seg.path, good, err)
			}
			// Crash mid-write: everything before the tear is whole.
			size, _ := w.file.Seek(0, io.SeekEnd) // what the tear cost, for the event
			if terr := os.Truncate(seg.path, good); terr != nil {
				return fmt.Errorf("fleet: truncating torn tail of %s: %w", seg.path, terr)
			}
			st.TornTails++
			l.tornTails.Add(1)
			l.cfg.obs.Emit(fleetobs.Event{
				Kind: fleetobs.KindTornTail, Scope: "aggregator", Shard: sh.dirIdx,
				Detail: fmt.Sprintf("%s truncated %d -> %d bytes", filepath.Base(seg.path), size, good),
			})
			return io.EOF
		}
		if err == nil {
			// Every frame was validated before it was appended, so one
			// that fails now is corruption, not data to skip.
			err = fr.Validate()
		}
		skipped := unknown != nil
		if err == nil && !skipped {
			l.replayed.Add(1)
			skipped, err = apply(sh.dirIdx, fr) // where a payload is decoded
		}
		if err != nil {
			host := "" // the header of a frame that failed before it is unread
			if fr != nil {
				host = fmt.Sprintf(", host %q", fr.Host)
			}
			return fmt.Errorf("fleet: log segment %s corrupt at byte %d%s: %w", seg.path, good, host, err)
		}
		good += int64(len(fr.raw))
		seg.frames++
		st.Frames++
		seg.newest = max(seg.newest, fr.SentUnixNano)
		if skipped {
			st.Skipped++
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) && last && seg.frames == 0 {
		return nil // a fresh active segment that was never written
	}
	seg.bytes = good
	return err
}

// segmentWalker reads segment files through one bufio.Reader and one frame,
// reused for every frame and segment and pooled across boots and queries. A
// frame it hands out lives only until its next read, which reads over the
// frame, its Batch and its bytes, so nothing may keep them (readFrame) but
// the host's name, interned for the walk. A pushed frame gets a fresh frame.
type segmentWalker struct {
	file *os.File // the segment being walked
	r    *bufio.Reader
	f    *frame
}

var walkers = sync.Pool{New: func() any { return &segmentWalker{r: bufio.NewReader(nil), f: newFrame()} }}

// walk hands fn each frame of the segment at path in order, or the error
// reading it ended in, until the file ends or fn returns an error. An
// *UnknownLayoutError comes with its whole frame. fn's io.EOF ends the walk
// early without error; failing to open the file is an error.
func (w *segmentWalker) walk(path string, fn func(*frame, error) error) error {
	var err error
	if w.file, err = os.Open(path); err != nil {
		return fmt.Errorf("fleet: log read: %w", err)
	}
	defer w.file.Close()
	w.r.Reset(w.file)
	w.f.hosts = make(map[string]string) // a host's name is allocated once per walk
	for err == nil {
		var fr *frame
		if fr, err = readFrame(w.r, w.f); err != io.EOF {
			err = fn(fr, err)
		}
	}
	if err == io.EOF { // the file's end, or fn's
		return nil
	}
	return err
}

// atEOF reports whether the segment being walked has no byte left.
func (w *segmentWalker) atEOF() bool {
	_, err := w.r.Peek(1)
	return err == io.EOF
}

// append writes one frame's bytes to the shard's active segment, syncing on the
// batched fsync schedule and rotating when the segment is full. Rotation runs
// the retention sweep; the returned flag tells the aggregator a rotation
// happened so it can consider compaction. The caller serializes per-shard
// ingest+append ordering (see Aggregator.Ingest) — this function's own locking
// only protects the chain against concurrent compaction and scans.
func (l *segmentLog) append(idx int, data []byte, sentUnixNano int64, now time.Time) (rotated bool, err error) {
	sh := l.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.f == nil {
		f, err := os.OpenFile(sh.active.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			l.appendErrs.Add(1)
			return false, err
		}
		sh.f = f
		sh.lastSync = now
	}
	if _, err := sh.f.Write(data); err != nil {
		l.appendErrs.Add(1)
		return false, err
	}
	sh.active.bytes += int64(len(data))
	sh.active.frames++
	sh.active.newest = max(sh.active.newest, sentUnixNano)
	l.appends.Add(1)
	l.appendBytes.Add(int64(len(data)))
	if l.cfg.syncInterval < 0 || now.Sub(sh.lastSync) >= l.cfg.syncInterval {
		// Fsyncs are already batched (at most one per syncInterval per
		// shard), so every one is observed — no sampling needed.
		start := time.Now()
		if err := sh.f.Sync(); err != nil {
			l.appendErrs.Add(1)
			return false, err
		}
		l.fsyncs.Add(1)
		l.cfg.obs.ObserveSince(fleetobs.StageFsync, start, fleetobs.Event{Shard: idx})
		sh.lastSync = now
	}
	if sh.active.bytes >= l.cfg.segmentBytes {
		if err := l.rotateLocked(sh); err != nil {
			l.appendErrs.Add(1)
			return false, err
		}
		l.sweepLocked(sh, now)
		return true, nil
	}
	return false, nil
}

// rotateLocked seals the active segment (sync + close) and starts the next
// one. Caller holds sh.mu.
func (l *segmentLog) rotateLocked(sh *logShard) error {
	if sh.f != nil {
		start := time.Now()
		if err := sh.f.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
		l.cfg.obs.ObserveSince(fleetobs.StageFsync, start, fleetobs.Event{Shard: sh.dirIdx})
		if err := sh.f.Close(); err != nil {
			return err
		}
		sh.f = nil
	}
	sealed := sh.active
	sh.sealed = append(sh.sealed, sealed)
	next := sealed.num + 1
	sh.active = segmentInfo{num: next, path: segPath(sh.dir, next)}
	l.rotations.Add(1)
	l.cfg.obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindRotation, Scope: "aggregator", Shard: sh.dirIdx,
		Detail: fmt.Sprintf("sealed %016d (%d frames, %d bytes)", sealed.num, sealed.frames, sealed.bytes),
	})
	return nil
}

// sweepLocked drops sealed segments whose newest frame is older than the
// retention horizon. Whole segments only: retention is coarse by design —
// the unit of forgetting is the unit of fsync and replay. Caller holds
// sh.mu.
func (l *segmentLog) sweepLocked(sh *logShard, now time.Time) {
	if l.cfg.retention <= 0 {
		return
	}
	cutoff := now.Add(-l.cfg.retention).UnixNano()
	kept := sh.sealed[:0]
	var removed, removedFrames int64
	for _, seg := range sh.sealed {
		if seg.newest < cutoff {
			os.Remove(seg.path)
			l.retired.Add(1)
			removed++
			removedFrames += seg.frames
			continue
		}
		kept = append(kept, seg)
	}
	sh.sealed = kept
	if removed > 0 {
		l.cfg.obs.Emit(fleetobs.Event{
			Kind: fleetobs.KindRetention, Scope: "aggregator", Shard: sh.dirIdx,
			Detail: fmt.Sprintf("removed %d segments (%d frames) past retention", removed, removedFrames),
		})
	}
}

// needsCompaction reports whether the shard's sealed chain has grown past
// the compaction threshold.
func (l *segmentLog) needsCompaction(idx int) bool {
	if l.cfg.compactSegments < 0 {
		return false
	}
	sh := l.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.sealed) >= l.cfg.compactSegments
}

// compact rewrites the shard's whole chain as one segment of full frames —
// one per host, at the host's newest applied state. gather runs under the
// shard's log mutex, so the gathered state provably covers every frame
// already in the chain (ingest updates state before it appends, and
// appends on this shard are excluded while we hold the mutex); a frame
// whose ingest is waiting on the mutex lands in the fresh active segment
// afterwards and replays as a harmless duplicate.
//
// Crash safety is the rename dance: the replacement is written and synced
// as a *.tmp, renamed over the highest-numbered segment (atomic on POSIX),
// and only then are the older segments deleted. Interrupted before the
// rename, the tmp is garbage collected at next open; interrupted after,
// replay sees old frames first and the compacted fulls — newest sequences,
// highest segment number — last, and the no-rollback rule makes the
// duplicates free.
func (l *segmentLog) compact(idx int, gather func() []*Batch) error {
	sh := l.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	begin := time.Now()
	batches := gather()
	// Seal the active segment so the whole chain is replaceable.
	if sh.active.frames > 0 || sh.f != nil {
		if err := l.rotateLocked(sh); err != nil {
			return err
		}
	}
	if len(sh.sealed) == 0 && len(batches) == 0 {
		return nil
	}
	l.cfg.obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindCompactionBegin, Scope: "aggregator", Shard: sh.dirIdx,
		Detail: fmt.Sprintf("%d sealed segments -> %d host fulls", len(sh.sealed), len(batches)),
	})
	target := sh.active.num - 1 // the newest sealed number, or 0 if none
	if len(sh.sealed) == 0 {
		// Nothing sealed but state to persist (boot-time rewrite into a
		// previously empty shard): claim the number below the active one.
		if target == 0 {
			sh.active = segmentInfo{num: 2, path: segPath(sh.dir, 2)}
			target = 1
		}
	}
	targetPath := segPath(sh.dir, target)
	tmpPath := targetPath + tmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error { // before the rename, the tmp is garbage
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	info := segmentInfo{num: target, path: targetPath}
	w := bufio.NewWriter(tmp)
	for _, b := range batches {
		raw, err := EncodeBatchBytes(b)
		if err == nil {
			_, err = w.Write(raw)
		}
		if err != nil {
			return fail(err)
		}
		info.bytes += int64(len(raw))
		info.frames++
		info.newest = max(info.newest, b.SentUnixNano)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	syncStart := time.Now()
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	l.fsyncs.Add(1)
	l.cfg.obs.ObserveSince(fleetobs.StageFsync, syncStart, fleetobs.Event{Shard: sh.dirIdx})
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, targetPath); err != nil {
		return fail(err)
	}
	syncDir(sh.dir)
	// The rename is the commit point; everything below is cleanup whose
	// interruption replay tolerates.
	for _, seg := range sh.sealed {
		if seg.num != target {
			os.Remove(seg.path)
		}
	}
	sh.sealed = []segmentInfo{info}
	l.compactions.Add(1)
	d := l.cfg.obs.ObserveSince(fleetobs.StageCompaction, begin, fleetobs.Event{Shard: sh.dirIdx})
	l.cfg.obs.Emit(fleetobs.Event{
		Kind: fleetobs.KindCompactionCommit, Scope: "aggregator", Shard: sh.dirIdx,
		DurationNanos: int64(d),
		Detail:        fmt.Sprintf("segment %016d: %d frames, %d bytes", info.num, info.frames, info.bytes),
	})
	return nil
}

// removeOrphans deletes shard dirs beyond the configured count. Only safe
// after their state has been rewritten into the current shards' chains.
func (l *segmentLog) removeOrphans() {
	for _, sh := range l.orphans {
		os.RemoveAll(sh.dir)
	}
	l.orphans = nil
}

// scan hands every frame in the log to fn, the read path behind history
// queries. Shard dirs are read concurrently; fn sees one dir's frames in
// segment order on one goroutine and segmentWalker, each read whole and its
// trailer checked, its payload undecoded, and done(dirIdx) runs there after
// the dir's last segment. A frame failing its checksum is dropped and the
// file read on; any other bad frame ends the file, dropped too. It returns
// the drops. Segment lists are copied under each shard's mutex and the files
// read unlocked, so a segment compacted away mid-scan is skipped and a frame
// being appended reads as a torn tail and ends that file: duplicates and
// stale fulls fall out of the no-rollback apply rules replay uses.
func (l *segmentLog) scan(fn func(dirIdx int, f *frame), done func(dirIdx int)) (dropped int64) {
	var n atomic.Int64
	eachDir(len(l.shards), func(i int) error {
		sh := l.shards[i]
		sh.mu.Lock()
		segs := slices.Clone(sh.sealed)
		if sh.active.frames > 0 {
			segs = append(segs, sh.active)
		}
		sh.mu.Unlock()
		w := walkers.Get().(*segmentWalker)
		defer walkers.Put(w)
		for _, seg := range segs {
			w.walk(seg.path, func(fr *frame, err error) error {
				switch {
				case err == nil:
					fn(sh.dirIdx, fr)
				case errors.As(err, new(*UnknownLayoutError)):
					// a whole frame of another layout: nothing to window
				case errors.Is(err, ErrChecksum):
					n.Add(1)
				case errors.Is(err, ErrTruncatedFrame):
					return io.EOF // a frame being appended
				default:
					n.Add(1)
					return io.EOF // the framing is lost: stop this file
				}
				return nil
			})
		}
		done(sh.dirIdx)
		return nil
	})
	return n.Load()
}

// segmentCounts returns the live segment count and total bytes.
func (l *segmentLog) segmentCounts() (segments int, bytes int64) {
	for _, sh := range l.shards {
		sh.mu.Lock()
		for _, seg := range sh.sealed {
			segments++
			bytes += seg.bytes
		}
		if sh.active.frames > 0 {
			segments++
			bytes += sh.active.bytes
		}
		sh.mu.Unlock()
	}
	return segments, bytes
}

// close syncs and closes every open segment file.
func (l *segmentLog) close() error {
	var first error
	for _, sh := range l.shards {
		sh.mu.Lock()
		if sh.f != nil {
			start := time.Now()
			if err := sh.f.Sync(); err != nil && first == nil {
				first = err
			} else if err == nil {
				l.fsyncs.Add(1)
				l.cfg.obs.ObserveSince(fleetobs.StageFsync, start, fleetobs.Event{Shard: sh.dirIdx})
			}
			if err := sh.f.Close(); err != nil && first == nil {
				first = err
			}
			sh.f = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Errors are ignored: not every filesystem supports it, and the
// rename itself is already ordered against the tmp file's data sync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
