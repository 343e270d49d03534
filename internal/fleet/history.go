package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleetobs"
	"vscsistats/internal/telemetry"
)

// History answers "what did the fleet's I/O look like between from and to"
// from the retained segment log — the paper's histograms-over-time views
// at fleet scope. The log is replayed per host through chainPos.apply —
// the function live ingest and boot replay advance a host with, so a frame
// means here what it meant when it was logged — up to each boundary:
//
//	baseline = the host's state as of its newest frame sent at or before from
//	end      = the host's state as of its newest frame sent at or before to
//
// and the window is core.IntervalSince(baseline, end) per virtual disk —
// the rule the interval recorder and the telemetry streamer use, applied to
// the durable chain instead of a live collector. A disk absent from the
// baseline (the VM appeared inside the window) contributes its full
// accumulated state, and so does one whose counters went backwards inside
// the window (the agent restarted, the VM was recreated under the same
// name): what it accumulated since the reset, never a negative bin. A host
// with no frame inside (from, to] contributes nothing, which equals a zero
// window because the chains are cumulative. The per-disk windows then merge
// bin-exactly into cluster and per-VM views, like every other aggregator
// read.
//
// One caveat is inherited from the log: retention and compaction discard old
// frames, so a from earlier than the oldest retained baseline silently
// widens the window to "since the oldest frame we still have".
//
// History scans disk on every call — it is a reporting query, deliberately
// off the ingest and scrape fast paths, and it never touches shard locks.
// The shard dirs are read concurrently. Every frame's trailer is checked,
// so a flipped bit is a drop wherever it lands, but a frame sent after to
// is counted and its payload never decoded.
func (g *Aggregator) History(from, to time.Time) (*HistoryResult, error) {
	return g.history(from, to, func(res *HistoryResult, windows []*core.Snapshot) {
		res.Cluster, res.VMs = mergeSnaps(windows)
	})
}

// history computes the per-disk windows and hands them to merge, which
// fills in the views its caller serves: the HTTP handler merges one.
func (g *Aggregator) history(from, to time.Time, merge func(*HistoryResult, []*core.Snapshot)) (*HistoryResult, error) {
	if g.log == nil {
		return nil, errors.New("fleet: history requires a segment log (no data dir configured)")
	}
	var res *HistoryResult
	pprof.Do(context.Background(), pprof.Labels("stage", "history"), func(context.Context) {
		start := time.Now()
		var windows []*core.Snapshot
		res, windows = g.windows(from, to)
		merge(res, windows)
		g.cfg.Obs.ObserveSince(fleetobs.StageHistory, start, fleetobs.Event{Shard: -1})
	})
	return res, nil
}

// windows replays the log for (from, to] into one window per disk.
func (g *Aggregator) windows(from, to time.Time) (*HistoryResult, []*core.Snapshot) {
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	// One host map per shard dir: scan reads the dirs concurrently, and a
	// host's frames live in its home dir only (boot compacts them there).
	dirs := make([]map[string]*historyHost, len(g.log.shards))
	for i := range dirs {
		dirs[i] = make(map[string]*historyHost)
	}
	var frames, dropped atomic.Int64
	scanDropped := g.log.scan(func(dirIdx int, f *frame) {
		frames.Add(1)
		if f.SentUnixNano > toNs {
			// Past the window's end: nothing after this frame on the
			// host's chain can matter (deltas building on it would also
			// be past the end, and fulls carry their own state).
			return
		}
		if f.Validate() != nil {
			dropped.Add(1) // corrupted since boot; replay refuses such a frame
			return
		}
		h := dirs[dirIdx][f.Host]
		if h == nil {
			h = &historyHost{}
			dirs[dirIdx][f.Host] = h
		}
		if f.Delta && f.SentUnixNano > fromNs && h.baseIsChain {
			// apply adds in place: the baseline keeps these snapshots.
			h.snaps, h.baseIsChain = append([]*core.Snapshot(nil), h.snaps...), false
			core.MakeWritable(h.snaps)
		}
		if applied, err := h.apply(f, true); !applied {
			// A duplicate, a stale full (compaction-interrupt leftovers), a
			// delta whose base is gone or a malformed one: live ingest left
			// its state alone for the same frame, and so does the window.
			if errors.Is(err, ErrBadFrame) {
				dropped.Add(1)
			}
			return
		}
		if f.SentUnixNano <= fromNs {
			h.base, h.baseIsChain = h.snaps, true
		} else {
			h.inWindow = true
		}
	})

	var windows []*core.Snapshot
	res := &HistoryResult{FromUnixNano: fromNs, ToUnixNano: toNs, Frames: frames.Load(), Dropped: dropped.Load() + scanDropped}
	g.log.historyDropped.Add(res.Dropped)
	for _, hosts := range dirs {
		for _, h := range hosts {
			if !h.inWindow || h.snaps == nil {
				continue
			}
			res.Hosts++
			base := h.base // in (VM, disk) order, as h.snaps, the state at to, is
			for _, s := range h.snaps {
				for len(base) > 0 && cmp.Or(strings.Compare(base[0].VM, s.VM), strings.Compare(base[0].Disk, s.Disk)) < 0 {
					base = base[1:] // a disk gone by to
				}
				var b *core.Snapshot
				if len(base) > 0 && base[0].VM == s.VM && base[0].Disk == s.Disk {
					b = base[0]
				}
				windows = append(windows, core.IntervalSince(b, s))
			}
		}
	}
	return res, windows
}

// historyHost is one host's replay state during a History scan: the same
// chainPos live ingest advances, which the scan owns, plus the baseline.
type historyHost struct {
	chainPos
	inWindow    bool             // a state change landed inside (from, to]
	base        []*core.Snapshot // state as of the newest frame sent <= from
	baseIsChain bool             // base may be the chain's own snapshots
}

// HistoryResult is a windowed merge over the segment log, served by
// GET /fleet/history.
type HistoryResult struct {
	// FromUnixNano and ToUnixNano echo the resolved window bounds.
	FromUnixNano int64 `json:"from_unix_nano"`
	ToUnixNano   int64 `json:"to_unix_nano"`
	// Hosts counts the hosts whose chains changed inside the window;
	// Frames counts every log frame the scan visited, and Dropped the
	// corrupt ones it could not use (segmentLog.scan): a window with drops
	// may be short.
	Hosts   int   `json:"hosts"`
	Frames  int64 `json:"frames"`
	Dropped int64 `json:"dropped"`
	// Cluster is the fleet-wide windowed merge, VMs the per-VM windowed
	// merges sorted by name; both nil when nothing changed in the window.
	// The HTTP layer trims whichever the query did not ask for.
	Cluster *core.Snapshot   `json:"cluster,omitempty"`
	VMs     []*core.Snapshot `json:"vms,omitempty"`
}

// serveHistory handles GET /fleet/history?from=&to=&vm=&view=.
func (g *Aggregator) serveHistory(w http.ResponseWriter, r *http.Request) {
	if g.log == nil {
		telemetry.JSONError(w, http.StatusNotFound, "history requires a segment log (start the aggregator with a data dir)")
		return
	}
	q := r.URL.Query()
	from, err := parseHistoryTime(q.Get("from"), time.Unix(0, 0))
	if err != nil {
		telemetry.JSONError(w, http.StatusBadRequest, "bad from: "+err.Error())
		return
	}
	to, err := parseHistoryTime(q.Get("to"), g.now())
	if err != nil {
		telemetry.JSONError(w, http.StatusBadRequest, "bad to: "+err.Error())
		return
	}
	if to.Before(from) {
		telemetry.JSONError(w, http.StatusBadRequest, "window ends before it starts")
		return
	}
	// Merge only the view the query asks for.
	vm, byVM := q.Get("vm"), q.Get("view") == "vms"
	res, err := g.history(from, to, func(res *HistoryResult, windows []*core.Snapshot) {
		if vm != "" {
			windows = slices.DeleteFunc(windows, func(s *core.Snapshot) bool { return s.VM != vm })
		}
		switch {
		case vm == "" && !byVM:
			res.Cluster = mergeCluster(windows)
		case len(windows) > 0:
			res.VMs = mergeByVM(windows)
		}
	})
	if err != nil {
		telemetry.JSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if vm != "" && res.VMs == nil {
		telemetry.JSONError(w, http.StatusNotFound, "no data for vm in window")
		return
	}
	telemetry.WriteJSON(w, res)
}

// parseHistoryTime accepts RFC3339 ("2026-08-08T12:00:00Z") or an integer
// unix timestamp — values above 1e15 are nanoseconds, anything else
// seconds (1e15 ns is January 1970, so no real clock is ambiguous).
func parseHistoryTime(s string, def time.Time) (time.Time, error) {
	if s == "" {
		return def, nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("want RFC3339 or unix seconds/nanos, got %q", s)
	}
	if v > 1e15 {
		return time.Unix(0, v), nil
	}
	return time.Unix(v, 0), nil
}
