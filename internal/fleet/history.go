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
// from the retained segment log — the paper's histograms-over-time views at
// fleet scope. Each host's chain is replayed through chainPos.apply, as live
// ingest and boot replay advance it, up to each boundary:
//
//	baseline = the host's state as of its newest frame sent at or before from
//	end      = the host's state as of its newest frame sent at or before to
//
// and each virtual disk's window, core.IntervalSince(baseline, end), is added
// bin-exactly into per-VM views and a cluster view with
// core.Snapshot.AddInterval, which builds no window. A disk absent from the
// baseline contributes all it accumulated, and so does one whose counters
// went backwards (the agent restarted): never a negative bin. A host with no
// frame inside (from, to] contributes nothing. Retention and compaction
// discard old frames, so a from before the oldest retained baseline widens
// the window to "since the oldest frame we still have".
//
// History reads the shard dirs concurrently on every call, off the ingest
// and scrape paths and without shard locks. Every frame's trailer is
// checked, so a flipped bit is a drop wherever it lands, but a frame sent
// after to is counted and its payload never decoded.
func (g *Aggregator) History(from, to time.Time) (*HistoryResult, error) {
	return g.history(from, to, "")
}

// history answers History, with only vm's view among the VMs when vm is not
// "": each dir's windows add into its own per-VM views as it is scanned.
func (g *Aggregator) history(from, to time.Time, vm string) (*HistoryResult, error) {
	if g.log == nil {
		return nil, errors.New("fleet: history requires a segment log (no data dir configured)")
	}
	var res *HistoryResult
	pprof.Do(context.Background(), pprof.Labels("stage", "history"), func(context.Context) {
		start := time.Now()
		views := make([]map[string]*core.Snapshot, len(g.log.shards)) // per dir, by VM
		res = g.windows(from, to, func(dirIdx int, base, end *core.Snapshot) {
			if vm != "" && end.VM != vm {
				return
			}
			v := views[dirIdx][end.VM]
			if v == nil {
				if views[dirIdx] == nil {
					views[dirIdx] = make(map[string]*core.Snapshot)
				}
				v = &core.Snapshot{VM: end.VM, Disk: "*"}
				views[dirIdx][end.VM] = v
			}
			v.AddInterval(base, end)
		})
		res.Cluster, res.VMs = combineViews(views)
		g.cfg.Obs.ObserveSince(fleetobs.StageHistory, start, fleetobs.Event{Shard: -1})
	})
	return res, nil
}

// combineViews adds each VM's later views into its first, in place, and
// returns the sum of those, the cluster view, and them sorted by name.
func combineViews(dirs []map[string]*core.Snapshot) (*core.Snapshot, []*core.Snapshot) {
	byVM := make(map[string]*core.Snapshot)
	var vms []*core.Snapshot
	for _, views := range dirs {
		for name, v := range views {
			if into := byVM[name]; into != nil {
				into.AddInterval(nil, v)
			} else {
				byVM[name], vms = v, append(vms, v)
			}
		}
	}
	slices.SortFunc(vms, func(a, b *core.Snapshot) int { return strings.Compare(a.VM, b.VM) })
	return core.Aggregate("cluster", "*", vms...), vms
}

// windows replays the log for (from, to] and hands disk the states at from
// (nil for a disk not there yet) and at to of each disk of each host whose
// chain changed inside, on the goroutine that scanned its dir, after that.
func (g *Aggregator) windows(from, to time.Time, disk func(dirIdx int, base, end *core.Snapshot)) *HistoryResult {
	fromNs, toNs := from.UnixNano(), to.UnixNano()
	// One host map per shard dir: scan reads the dirs concurrently, and a
	// host's frames live in its home dir only (boot compacts them there).
	dirs := make([]map[string]*historyHost, len(g.log.shards))
	for i := range dirs {
		dirs[i] = make(map[string]*historyHost)
	}
	var frames, dropped, hosts atomic.Int64
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
	}, func(dirIdx int) {
		for _, h := range dirs[dirIdx] {
			if !h.inWindow || h.snaps == nil {
				continue
			}
			hosts.Add(1)
			base := h.base // in (VM, disk) order, as h.snaps, the state at to, is
			for _, s := range h.snaps {
				for len(base) > 0 && cmp.Or(strings.Compare(base[0].VM, s.VM), strings.Compare(base[0].Disk, s.Disk)) < 0 {
					base = base[1:] // a disk gone by to
				}
				var b *core.Snapshot
				if len(base) > 0 && base[0].VM == s.VM && base[0].Disk == s.Disk {
					b = base[0]
				}
				disk(dirIdx, b, s)
			}
		}
	})
	res := &HistoryResult{FromUnixNano: fromNs, ToUnixNano: toNs, Hosts: int(hosts.Load()), Frames: frames.Load(), Dropped: dropped.Load() + scanDropped}
	g.log.historyDropped.Add(res.Dropped)
	return res
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
	q := r.URL.Query()
	from, ferr := parseHistoryTime(q.Get("from"), time.Unix(0, 0))
	to, terr := parseHistoryTime(q.Get("to"), g.now())
	switch {
	case ferr != nil:
		telemetry.JSONError(w, http.StatusBadRequest, "bad from: "+ferr.Error())
		return
	case terr != nil:
		telemetry.JSONError(w, http.StatusBadRequest, "bad to: "+terr.Error())
		return
	case to.Before(from):
		telemetry.JSONError(w, http.StatusBadRequest, "window ends before it starts")
		return
	}
	// Add up only the VM the query names, and serve only the view it asks for.
	vm, byVM := q.Get("vm"), q.Get("view") == "vms"
	res, err := g.history(from, to, vm)
	switch {
	case err != nil: // the one error: no segment log
		telemetry.JSONError(w, http.StatusNotFound, err.Error())
	case vm != "" && res.VMs == nil:
		telemetry.JSONError(w, http.StatusNotFound, "no data for vm in window")
	case vm != "" || byVM:
		res.Cluster = nil
		telemetry.WriteJSON(w, res)
	default:
		res.VMs = nil
		telemetry.WriteJSON(w, res)
	}
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
