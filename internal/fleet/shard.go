package fleet

import (
	"cmp"
	"errors"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
)

// shard is one independent slice of the aggregator's host space. Hosts
// route to shards by a consistent hash of their name, so every batch from
// one host always lands on the same shard and shards share no state: each
// has its own lock, its own host map and its own merge cache. Ingest on
// one shard never contends with ingest or reads on another, and a scrape
// only re-merges the shards whose hosts actually changed.
type shard struct {
	index int

	// mu guards hosts and version. version increments whenever any host's
	// stored snapshots change (ingest of new state, delta apply) —
	// the merge cache's invalidation signal. Liveness-only refreshes do
	// not bump it: the cache also keys on the fresh-host set, which is
	// recomputed per read.
	mu      sync.RWMutex
	hosts   map[string]*hostState
	version uint64

	batches       atomic.Int64
	deltasApplied atomic.Int64
	duplicates    atomic.Int64
	resyncs       atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	// resyncCause splits resyncs by ResyncCause (indexed by causeIndex);
	// layout-mismatch is counted at the aggregator, which is where
	// Validate runs.
	resyncCause [numResyncCauses]atomic.Int64

	// obs receives merge-recompute latency samples; nil when the owning
	// aggregator has no tracker.
	obs *fleetobs.Tracker

	// The shard's two merged views, memoized apart: a reader computes only
	// the one it asks for.
	cluster viewMemo[*core.Snapshot]
	vms     viewMemo[[]*core.Snapshot]
}

// viewMemo memoizes one of the shard's merged views. An entry is valid for
// exactly one (version, fresh-host set) pair: a new ingest bumps version,
// and a host aging past the staleness horizon (or reviving) changes the
// host list, so either invalidates without any clock-driven expiry logic.
// mu guards the entry and single-flights recomputation: concurrent scrapes
// of an unchanged shard wait for one merge instead of all redoing it.
type viewMemo[T any] struct {
	mu      sync.Mutex
	valid   bool
	version uint64
	hosts   []string
	view    T
}

func newShard(index int, obs *fleetobs.Tracker) *shard {
	return &shard{index: index, hosts: make(map[string]*hostState), obs: obs}
}

// noteResync counts one refused delta, total and per cause.
func (s *shard) noteResync(cause ResyncCause) {
	s.resyncs.Add(1)
	if i := causeIndex(cause); i >= 0 {
		s.resyncCause[i].Add(1)
	}
}

// chainPos is one sender's position in the push protocol: the sequence
// and boot incarnation of the last frame applied, and the full state that
// frame left behind (the zero value knows nothing). Live ingest, boot
// replay and History each hold one per host and advance it only through
// apply, so they cannot disagree about what a frame means. Only an owner
// that hands the snapshots to no one (boot replay until OpenAggregator
// returns, History) may have apply add deltas in place; live ingest copies.
type chainPos struct {
	seq   uint64
	boot  uint64 // 0 for pre-federation senders
	known bool   // a full frame has established state
	snaps []*core.Snapshot
}

// apply is the receiver's half of the push protocol (DESIGN.md §10
// "Protocol rules"): the one place a frame's Seq, BaseSeq and Boot meet
// stored state. It reports whether the frame changed the chain; applied
// false with a nil error is a duplicate delta or a stale full, and a
// *ResyncError names why a delta cannot apply. A payload not yet decoded is
// decoded here, a delta's onto the chain's snapshots, so a malformed one is
// an ErrBadFrame even where apply does not use it. An error changes nothing.
func (c *chainPos) apply(f *frame, owned bool) (applied bool, err error) {
	// A restarted sender's sequence space started over, so no comparison
	// of sequences across the restart means anything.
	rebooted := f.Boot != 0 && c.boot != 0 && f.Boot != c.boot
	if !f.Delta {
		if f.Snapshots == nil {
			if f.Snapshots, err = decodePayload(f.payload, f.count, false, nil, false); err != nil {
				return false, err
			}
		}
		// Newest full wins, and so does any full from a new incarnation:
		// "newest seq" alone would pin the host at its dead predecessor.
		if f.Seq < c.seq && !rebooted {
			return false, nil
		}
		*c = chainPos{seq: f.Seq, boot: f.Boot, known: true, snaps: f.Snapshots}
		return true, nil
	}
	var base []*core.Snapshot // nil unless the delta applies: decoded onto nothing, it is only checked
	switch {
	case !c.known:
		err = resyncErr(ResyncUnknownHost, "no state for host %q (aggregator restarted?)", f.Host)
	case rebooted:
		err = resyncErr(ResyncBootChanged, "delta from boot %#x, host %q stored boot %#x", f.Boot, f.Host, c.boot)
	case f.Seq <= c.seq:
	case f.BaseSeq != c.seq:
		err = resyncErr(ResyncSeqGap, "delta base seq %d, host %q is at %d", f.BaseSeq, f.Host, c.seq)
	default:
		if base = c.snaps; base == nil {
			base = []*core.Snapshot{} // no disks, which a nil base does not mean
		}
	}
	snaps, derr := decodePayload(f.payload, f.count, true, base, owned)
	if derr != nil || base == nil {
		return false, cmp.Or(derr, err)
	}
	c.seq, c.snaps = f.Seq, snaps
	if f.Boot != 0 {
		c.boot = f.Boot
	}
	return true, nil
}

// ingest records a validated frame: chainPos.apply decides what the frame
// means, ingest keeps the books around it. Any well-formed frame from a
// known host refreshes liveness, refused or not; a refusal is counted by
// cause and returned so the sender falls back to a full push. The applied
// result reports whether the frame changed stored state — the segment log
// persists exactly those frames, so liveness-only refreshes and duplicates
// never consume log space. Only boot replay owns the chains (chainPos).
func (s *shard) ingest(f *frame, source string, now time.Time, owned bool) (applied bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.hosts[f.Host]
	if st == nil {
		st = &hostState{host: f.Host} // kept only if the frame is accepted
	}
	applied, err = st.apply(f, owned)
	if errors.Is(err, ErrBadFrame) {
		return false, err
	}
	st.lastSeen, st.source = now, source
	if err != nil {
		s.noteResync(resyncCauseOf(err))
		return false, err
	}
	s.hosts[f.Host] = st
	st.batches++
	s.batches.Add(1)
	switch {
	case applied:
		st.sentUnixNano = f.SentUnixNano
		st.level, st.leaves = f.Level, f.Leaves
		s.version++
		if f.Delta {
			s.deltasApplied.Add(1)
		}
	case f.Delta:
		s.duplicates.Add(1)
	}
	return applied, nil
}

// fullBatches renders every host's current state as one full batch each,
// sorted by host name — what segment-log compaction writes in place of a
// host's full-plus-deltas chain. Snapshots are shared by reference
// (immutable once stored), so this copies slice headers, not histograms.
func (s *shard) fullBatches() []*Batch {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Batch, 0, len(s.hosts))
	for _, st := range s.hosts {
		out = append(out, &Batch{
			Host:         st.host,
			Seq:          st.seq,
			SentUnixNano: st.sentUnixNano,
			Snapshots:    st.snaps,
			Boot:         st.boot,
			Level:        st.level,
			Leaves:       st.leaves,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// statuses appends every host's liveness record to out.
func (s *shard) statuses(now time.Time, staleAfter time.Duration, out []HostStatus) []HostStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, st := range s.hosts {
		age := now.Sub(st.lastSeen)
		leaves := st.leaves
		if leaves <= 0 {
			leaves = 1
		}
		out = append(out, HostStatus{
			Host:             st.host,
			Source:           st.source,
			Seq:              st.seq,
			Batches:          st.batches,
			Snapshots:        len(st.snaps),
			LastSeenUnixNano: st.lastSeen.UnixNano(),
			AgeSeconds:       age.Seconds(),
			Stale:            age > staleAfter,
			Level:            st.level,
			Leaves:           leaves,
		})
	}
	return out
}

// clusterMerge returns the shard-level merge of every fresh host, nil when
// the shard has none; vmMerges returns their per-VM merges sorted by VM
// name. See mergedView.
func (s *shard) clusterMerge(now time.Time, staleAfter time.Duration, includeStale bool) *core.Snapshot {
	return mergedView(s, &s.cluster, now, staleAfter, includeStale, func(snaps []*core.Snapshot) *core.Snapshot {
		return core.Aggregate("cluster", "*", snaps...) // nil for none
	})
}

func (s *shard) vmMerges(now time.Time, staleAfter time.Duration, includeStale bool) []*core.Snapshot {
	return mergedView(s, &s.vms, now, staleAfter, includeStale, mergeByVM)
}

// mergedView returns merge over the shard's fresh hosts. The
// includeStale=false path memoizes in m: as long as the shard's version and
// fresh-host set are unchanged, repeated scrapes return the cached merge
// instead of re-folding every host — the property that makes a scrape-heavy
// aggregator's merge cost proportional to what changed, not to fleet size.
// Returned snapshots are shared and must be treated as immutable
// (core.Aggregate clones before merging, so feeding them back in is safe).
func mergedView[T any](s *shard, m *viewMemo[T], now time.Time, staleAfter time.Duration, includeStale bool, merge func([]*core.Snapshot) T) T {
	s.mu.RLock()
	version := s.version
	names := make([]string, 0, len(s.hosts))
	for h, st := range s.hosts {
		if !includeStale && now.Sub(st.lastSeen) > staleAfter {
			continue
		}
		names = append(names, h)
	}
	sort.Strings(names)
	snaps := make([]*core.Snapshot, 0, len(names))
	for _, h := range names {
		snaps = append(snaps, s.hosts[h].snaps...)
	}
	s.mu.RUnlock()

	if !includeStale {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.valid && m.version == version && slices.Equal(m.hosts, names) {
			s.cacheHits.Add(1)
			return m.view
		}
		s.cacheMisses.Add(1)
	}
	start := time.Now()
	view := merge(snaps)
	s.obs.ObserveSince(fleetobs.StageMergeRecompute, start, fleetobs.Event{Shard: s.index})
	// A slow reader that observed an older version must not clobber a
	// fresher entry; version is monotone under mu.
	if !includeStale && (!m.valid || version >= m.version) {
		m.valid, m.version, m.hosts, m.view = true, version, names, view
	}
	return view
}

// mergeByVM merges the snapshots of each VM, sorted by VM name. A VM whose
// only snapshot is already named (vm, "*") is passed on as it is: Aggregate
// would return a copy of it.
func mergeByVM(snaps []*core.Snapshot) []*core.Snapshot {
	byVM := make(map[string][]*core.Snapshot)
	for _, s := range snaps {
		byVM[s.VM] = append(byVM[s.VM], s)
	}
	out := make([]*core.Snapshot, 0, len(byVM))
	for vm, parts := range byVM {
		if len(parts) == 1 && parts[0].Disk == "*" {
			out = append(out, parts[0])
		} else {
			out = append(out, core.Aggregate(vm, "*", parts...))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VM < out[j].VM })
	return out
}

// shardHash routes a host name to a shard: FNV-1a over the name, reduced
// modulo the shard count. Deterministic across processes and restarts, so
// any party that knows the shard count can compute a host's shard.
func shardHash(host string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(host))
	return h.Sum32()
}
