package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
	"vscsistats/internal/fleetobs"
)

// newFlags builds a per-command FlagSet that reports usage to errw.
func (c *ctl) newFlags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("vscsictl "+name, flag.ContinueOnError)
	fs.SetOutput(c.errw)
	return fs
}

// table starts an aligned writer; callers must Flush.
func (c *ctl) table() *tabwriter.Writer {
	return tabwriter.NewWriter(c.out, 2, 8, 2, ' ', 0)
}

// --- hosts ---

func (c *ctl) cmdHosts(args []string) error {
	fs := c.newFlags("hosts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var hosts []fleet.HostStatus
	if done, err := c.getJSON("/fleet/hosts", &hosts); done || err != nil {
		return err
	}
	tw := c.table()
	fmt.Fprintln(tw, "HOST\tSOURCE\tLVL\tLEAVES\tSEQ\tBATCHES\tDISKS\tAGE\tSTALE")
	stale, leaves := 0, 0
	for _, h := range hosts {
		if h.Stale {
			stale++
		} else {
			leaves += h.Leaves
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%v\n",
			h.Host, h.Source, h.Level, h.Leaves, h.Seq, h.Batches, h.Snapshots, time.Duration(h.AgeSeconds*float64(time.Second)).Round(100*time.Millisecond), h.Stale)
	}
	tw.Flush()
	fmt.Fprintf(c.out, "%d hosts (%d stale), %d leaves folded\n", len(hosts), stale, leaves)
	return nil
}

// --- shards ---

func (c *ctl) cmdShards(args []string) error {
	fs := c.newFlags("shards")
	host := fs.String("host", "", "probe which shard this host name routes to instead of listing all shards")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *host != "" {
		var probe struct {
			Host   string `json:"host"`
			Shard  int    `json:"shard"`
			Shards int    `json:"shards"`
		}
		if done, err := c.getJSON("/fleet/shards?host="+url.QueryEscape(*host), &probe); done || err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s routes to shard %d of %d\n", probe.Host, probe.Shard, probe.Shards)
		return nil
	}
	var shards []fleet.ShardStatus
	if done, err := c.getJSON("/fleet/shards", &shards); done || err != nil {
		return err
	}
	tw := c.table()
	fmt.Fprintln(tw, "SHARD\tHOSTS\tSTALE\tBATCHES\tDELTAS\tDUPES\tRESYNCS\tCACHE-HITS\tCACHE-MISSES")
	var hosts, stale int
	var batches int64
	for _, s := range shards {
		hosts += s.Hosts
		stale += s.StaleHosts
		batches += s.Batches
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			s.Shard, s.Hosts, s.StaleHosts, s.Batches, s.DeltasApplied, s.Duplicates,
			s.Resyncs, s.MergeCacheHits, s.MergeCacheMisses)
	}
	tw.Flush()
	fmt.Fprintf(c.out, "%d shards: %d hosts (%d stale), %d batches\n", len(shards), hosts, stale, batches)
	return nil
}

// --- log ---

func (c *ctl) cmdLog(args []string) error {
	fs := c.newFlags("log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var st fleet.LogStats
	if done, err := c.getJSON("/fleet/log", &st); done || err != nil {
		return err
	}
	if !st.Enabled {
		fmt.Fprintln(c.out, "segment log disabled (memory-only aggregator)")
		return nil
	}
	tw := c.table()
	fmt.Fprintf(tw, "segments\t%d (%s)\n", st.Segments, fmtBytes(st.Bytes))
	fmt.Fprintf(tw, "appends\t%d (%s, %d errors)\n", st.Appends, fmtBytes(st.AppendBytes), st.AppendErrors)
	fmt.Fprintf(tw, "fsyncs\t%d\n", st.Fsyncs)
	fmt.Fprintf(tw, "rotations\t%d\n", st.Rotations)
	fmt.Fprintf(tw, "compactions\t%d\n", st.Compactions)
	fmt.Fprintf(tw, "retired\t%d segments\n", st.SegmentsRetired)
	fmt.Fprintf(tw, "boot replay\t%d frames (%d torn tails)\n", st.FramesReplayed, st.TornTails)
	tw.Flush()
	return nil
}

// --- vms ---

func (c *ctl) cmdVMs(args []string) error {
	fs := c.newFlags("vms")
	stale := fs.Bool("stale", false, "include stale hosts in the merge")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := "/fleet/snapshot?view=vms"
	if *stale {
		path += "&include_stale=1"
	}
	var vms []*core.Snapshot
	if done, err := c.getJSON(path, &vms); done || err != nil {
		return err
	}
	tw := c.table()
	fmt.Fprintln(tw, "VM\tCOMMANDS\tREAD%\tAVG-IO\tAVG-LAT\tREAD-BYTES\tWRITE-BYTES\tERRORS")
	for _, s := range vms {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%s\t%s\t%s\t%d\n",
			s.VM, s.Commands, 100*s.ReadFraction(),
			fmtBytes(int64(s.Histogram(core.MetricIOLength, core.All).Mean())),
			time.Duration(s.Histogram(core.MetricLatency, core.All).Mean()*float64(time.Microsecond)).Round(time.Microsecond),
			fmtBytes(s.ReadBytes), fmtBytes(s.WriteBytes), s.Errors)
	}
	tw.Flush()
	fmt.Fprintf(c.out, "%d VMs\n", len(vms))
	return nil
}

// --- snapshot ---

func (c *ctl) cmdSnapshot(args []string) error {
	fs := c.newFlags("snapshot")
	vm := fs.String("vm", "", "one VM's merged view instead of the whole cluster")
	stale := fs.Bool("stale", false, "include stale hosts in the merge")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := "/fleet/snapshot"
	q := url.Values{}
	if *vm != "" {
		q.Set("vm", *vm)
	}
	if *stale {
		q.Set("include_stale", "1")
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var s core.Snapshot
	if done, err := c.getJSON(path, &s); done || err != nil {
		return err
	}
	c.printSnapshot(&s)
	return nil
}

// printSnapshot renders one merged view: the counter header plus a
// per-metric summary table over the all-commands class.
func (c *ctl) printSnapshot(s *core.Snapshot) {
	fmt.Fprintf(c.out, "%s (disk %s): %d commands, %d reads / %d writes (%.0f%% reads), %d errors\n",
		s.VM, s.Disk, s.Commands, s.NumReads, s.NumWrites, 100*s.ReadFraction(), s.Errors)
	fmt.Fprintf(c.out, "bytes: %s read, %s written\n", fmtBytes(s.ReadBytes), fmtBytes(s.WriteBytes))
	tw := c.table()
	fmt.Fprintln(tw, "METRIC\tUNIT\tSAMPLES\tMEAN\tMIN\tMAX")
	for _, m := range core.Metrics() {
		h := s.Histogram(m, core.All)
		if h == nil || h.Total == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%d\t%d\n", m, h.Unit, h.Total, h.Mean(), h.Min, h.Max)
	}
	tw.Flush()
}

// --- history ---

func (c *ctl) cmdHistory(args []string) error {
	fs := c.newFlags("history")
	from := fs.String("from", "", "window start (RFC3339, unix seconds/nanos, or relative like -15m; default log start)")
	to := fs.String("to", "", "window end (same formats; default now)")
	vm := fs.String("vm", "", "narrow to one VM")
	vms := fs.Bool("vms", false, "per-VM windowed merges instead of the cluster view")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *from != "" {
		q.Set("from", c.windowTime(*from))
	}
	if *to != "" {
		q.Set("to", c.windowTime(*to))
	}
	if *vm != "" {
		q.Set("vm", *vm)
	}
	if *vms {
		q.Set("view", "vms")
	}
	path := "/fleet/history"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var res fleet.HistoryResult
	if done, err := c.getJSON(path, &res); done || err != nil {
		return err
	}
	fmt.Fprintf(c.out, "window %s .. %s: %d hosts changed, %d frames scanned\n",
		fmtTime(res.FromUnixNano), fmtTime(res.ToUnixNano), res.Hosts, res.Frames)
	switch {
	case res.Cluster != nil:
		c.printSnapshot(res.Cluster)
	case len(res.VMs) > 0:
		tw := c.table()
		fmt.Fprintln(tw, "VM\tCOMMANDS\tREAD%\tREAD-BYTES\tWRITE-BYTES\tERRORS")
		for _, s := range res.VMs {
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%s\t%d\n",
				s.VM, s.Commands, 100*s.ReadFraction(), fmtBytes(s.ReadBytes), fmtBytes(s.WriteBytes), s.Errors)
		}
		tw.Flush()
	default:
		fmt.Fprintln(c.out, "no state changed inside the window")
	}
	return nil
}

// --- catalog ---

func (c *ctl) cmdCatalog(args []string) error {
	fs := c.newFlags("catalog")
	vm := fs.String("vm", "", "one VM's full ranking instead of the fleet-wide view")
	stale := fs.Bool("stale", false, "classify stale hosts' VMs too")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *vm != "" {
		q.Set("vm", *vm)
	}
	if *stale {
		q.Set("include_stale", "1")
	}
	path := "/fleet/catalog"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	if *vm != "" {
		var one fleet.CatalogVM
		if done, err := c.getJSON(path, &one); done || err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s: %s (distance %.4f over %d commands)\n",
			one.VM, one.Personality, one.Distance, one.Commands)
		tw := c.table()
		fmt.Fprintln(tw, "RANK\tPERSONALITY\tSCORE\tCOMPONENTS")
		for i, r := range one.Ranking {
			fmt.Fprintf(tw, "%d\t%s\t%.4f\t%s\n", i+1, r.Name, r.Score, fmtComponents(r.Components))
		}
		tw.Flush()
		return nil
	}
	var res fleet.CatalogResult
	if done, err := c.getJSON(path, &res); done || err != nil {
		return err
	}
	fmt.Fprintf(c.out, "references: %s\n", strings.Join(res.References, ", "))
	tw := c.table()
	fmt.Fprintln(tw, "VM\tPERSONALITY\tDISTANCE\tCOMMANDS")
	for _, v := range res.VMs {
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%d\n", v.VM, v.Personality, v.Distance, v.Commands)
	}
	tw.Flush()
	mix := make([]string, 0, len(res.Mix))
	for name, n := range res.Mix {
		mix = append(mix, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(mix)
	fmt.Fprintf(c.out, "mix: %s\n", strings.Join(mix, " "))
	fmt.Fprintf(c.out, "%d classified, %d unclassified\n", len(res.VMs), res.Unclassified)
	return nil
}

// fmtComponents renders per-metric distance components sorted by name.
func fmtComponents(comp map[string]float64) string {
	keys := make([]string, 0, len(comp))
	for k := range comp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%.3f", k, comp[k])
	}
	return strings.Join(parts, " ")
}

// --- events ---

func (c *ctl) cmdEvents(args []string) error {
	fs := c.newFlags("events")
	kind := fs.String("kind", "", "filter by event kind")
	host := fs.String("host", "", "filter by host")
	limit := fs.Int("limit", 0, "cap the number of events returned")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *kind != "" {
		q.Set("kind", *kind)
	}
	if *host != "" {
		q.Set("host", *host)
	}
	if *limit > 0 {
		q.Set("limit", fmt.Sprint(*limit))
	}
	path := "/fleet/events"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var res struct {
		Total  int64            `json:"total"`
		Events []fleetobs.Event `json:"events"`
	}
	if done, err := c.getJSON(path, &res); done || err != nil {
		return err
	}
	tw := c.table()
	fmt.Fprintln(tw, "SEQ\tTIME\tKIND\tSTAGE\tHOST\tCAUSE\tDURATION\tDETAIL")
	for _, e := range res.Events {
		dur := ""
		if e.DurationNanos > 0 {
			dur = time.Duration(e.DurationNanos).String()
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			e.Seq, fmtTime(e.UnixNano), e.Kind, e.Stage, e.Host, e.Cause, dur, e.Detail)
	}
	tw.Flush()
	fmt.Fprintf(c.out, "%d shown of %d recorded\n", len(res.Events), res.Total)
	return nil
}

// --- watch ---

// watchTick is the composed per-tick status; in -json mode watch emits one
// of these per line (NDJSON) rather than passing server bodies through.
type watchTick struct {
	UnixNano   int64   `json:"unix_nano"`
	Hosts      int     `json:"hosts"`
	StaleHosts int     `json:"stale_hosts"`
	Commands   int64   `json:"commands"`
	Errors     int64   `json:"errors"`
	RatePerSec float64 `json:"rate_per_sec"`
}

func (c *ctl) cmdWatch(args []string) error {
	fs := c.newFlags("watch")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	n := fs.Int("n", 0, "stop after this many ticks (0 = run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *interval <= 0 {
		return fmt.Errorf("watch: interval must be positive")
	}
	var prev int64
	var prevAt time.Time
	for i := 0; ; i++ {
		tick, err := c.watchOnce()
		if err != nil {
			return err
		}
		now := c.now()
		if !prevAt.IsZero() {
			if dt := now.Sub(prevAt).Seconds(); dt > 0 {
				tick.RatePerSec = float64(tick.Commands-prev) / dt
			}
		}
		tick.UnixNano = now.UnixNano()
		prev, prevAt = tick.Commands, now
		if c.json {
			b, err := json.Marshal(tick)
			if err != nil {
				return err
			}
			c.out.Write(b)
			fmt.Fprintln(c.out)
		} else {
			fmt.Fprintf(c.out, "%s  hosts=%d (%d stale)  commands=%d  errors=%d  rate=%.0f/s\n",
				now.Format("15:04:05"), tick.Hosts, tick.StaleHosts, tick.Commands, tick.Errors, tick.RatePerSec)
		}
		if *n > 0 && i+1 >= *n {
			return nil
		}
		c.sleep(*interval)
	}
}

// watchOnce polls host liveness and, when any host is fresh, the cluster
// merge. A fleet where every host has gone stale is a valid watch state,
// not an error — the tick just reports zero commands.
func (c *ctl) watchOnce() (watchTick, error) {
	var tick watchTick
	body, err := c.get("/fleet/hosts")
	if err != nil {
		return tick, err
	}
	var hosts []fleet.HostStatus
	if err := json.Unmarshal(body, &hosts); err != nil {
		return tick, err
	}
	tick.Hosts = len(hosts)
	for _, h := range hosts {
		if h.Stale {
			tick.StaleHosts++
		}
	}
	if tick.Hosts == tick.StaleHosts {
		return tick, nil
	}
	body, err = c.get("/fleet/snapshot")
	if err != nil {
		return tick, err
	}
	var s core.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return tick, err
	}
	tick.Commands, tick.Errors = s.Commands, s.Errors
	return tick, nil
}

// --- formatting helpers ---

func fmtTime(unixNano int64) string {
	return time.Unix(0, unixNano).UTC().Format(time.RFC3339)
}

// windowTime resolves a -from/-to value: a Go duration ("-15m", "1h30m")
// becomes an absolute RFC3339 instant relative to now; anything else is
// passed through for the server to parse as RFC3339 or unix time.
func (c *ctl) windowTime(v string) string {
	if d, err := time.ParseDuration(v); err == nil {
		return c.now().Add(d).UTC().Format(time.RFC3339Nano)
	}
	return v
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
