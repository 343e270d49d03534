package fleetobs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"vscsistats/internal/telemetry"
)

// ServeEvents handles GET /fleet/events: the event ring as JSON,
// oldest first. Query parameters: kind= and host= filter, limit=
// bounds the result (default: the whole ring).
func (t *Tracker) ServeEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	kind := r.URL.Query().Get("kind")
	host := r.URL.Query().Get("host")
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			telemetry.JSONError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	events := t.Events(0)
	filtered := events[:0:0]
	for _, e := range events {
		if kind != "" && e.Kind != kind {
			continue
		}
		if host != "" && e.Host != host {
			continue
		}
		filtered = append(filtered, e)
	}
	if limit > 0 && len(filtered) > limit {
		filtered = filtered[len(filtered)-limit:]
	}
	telemetry.WriteJSON(w, map[string]any{
		"total":  t.EventsTotal(),
		"events": filtered,
	})
}

// ServeSlow handles GET /fleet/slow: the retained slowest operations,
// slowest first. threshold= takes a Go duration ("10ms") or an integer
// nanosecond count; limit= bounds the result.
func (t *Tracker) ServeSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
		return
	}
	var threshold time.Duration
	if s := r.URL.Query().Get("threshold"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			n, nerr := strconv.ParseInt(s, 10, 64)
			if nerr != nil {
				telemetry.JSONError(w, http.StatusBadRequest, "bad threshold (want duration like 10ms or integer nanos)")
				return
			}
			d = time.Duration(n)
		}
		threshold = d
	}
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			telemetry.JSONError(w, http.StatusBadRequest, "bad limit")
			return
		}
		limit = n
	}
	telemetry.WriteJSON(w, map[string]any{
		"threshold_nanos": threshold.Nanoseconds(),
		"ops":             t.Slowest(threshold, limit),
	})
}

// ChromeTraceHandler serves the event ring in the Chrome trace-event
// format (load in chrome://tracing or Perfetto). Hosts map to
// processes, stages and event kinds to threads; events without a host
// group under a synthetic process named after their scope.
func (t *Tracker) ChromeTraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			telemetry.JSONError(w, http.StatusMethodNotAllowed, "method not allowed", http.MethodGet)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		t.WriteChromeTrace(w)
	})
}

// WriteChromeTrace renders the current event ring as a Chrome
// trace-event JSON array. Timed events become complete ("X") slices
// whose start is end-time minus duration; instantaneous events become
// instants ("i").
func (t *Tracker) WriteChromeTrace(w io.Writer) error {
	events := t.Events(0)
	out := make([]telemetry.ChromeEvent, 0, len(events))
	for _, e := range events {
		ce := telemetry.ChromeEvent{Process: "fleet", Thread: e.Kind, Cat: "control", TS: e.UnixNano / 1000, Instant: "p"}
		if e.Host != "" {
			ce.Process = e.Host
		} else if e.Scope != "" {
			ce.Process = e.Scope
		}
		if e.Stage != "" {
			ce.Thread = e.Stage
		}
		ce.Name = ce.Thread
		if e.Cause != "" {
			ce.Name += ":" + e.Cause
		}
		if e.Kind == KindStage {
			ce.Cat = "pipeline"
		}
		if e.DurationNanos > 0 {
			ce.Instant = ""
			ce.TS = (e.UnixNano - e.DurationNanos) / 1000
			ce.Dur = e.DurationNanos / 1000
		}
		args, _ := json.Marshal(map[string]any{
			"seq": e.Seq, "trace_id": e.TraceID, "batch_seq": e.BatchSeq,
			"shard": e.Shard, "cause": e.Cause, "detail": e.Detail,
		})
		ce.Args = string(args)
		out = append(out, ce)
	}
	return telemetry.WriteChromeTrace(w, out)
}
