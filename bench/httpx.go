package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"vscsistats/internal/fleet"
)

// spanHeader carries the client-side span's id to the serving side, so the
// span of a request served is caused by the span of the round trip that
// sent it: one identifier per request, across the loopback hop.
const spanHeader = "X-Bench-Span"

// newClient is the HTTP client every workload pushes and scrapes with: at
// most procs connections per aggregator, so loopback concurrency never
// exceeds the worker count. In a traced run each round trip is a span
// caused by whatever cause() returns at the time.
func newClient(e *env, cause func() spanID) *http.Client {
	base := &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs}
	if e.tr == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &spanTransport{tr: e.tr, base: base, cause: cause}}
}

type spanTransport struct {
	tr    *tracer
	base  *http.Transport
	cause func() spanID
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.tr.active() {
		return t.base.RoundTrip(r)
	}
	id := t.tr.begin("fleet.wire.roundtrip", t.cause(), 0)
	r = r.Clone(r.Context()) // a RoundTripper must not modify the caller's request
	r.Header.Set(spanHeader, strconv.Itoa(int(id)))
	resp, err := t.base.RoundTrip(r)
	t.tr.end(id, r.ContentLength)
	return resp, err
}

func (t *spanTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// spanHandler wraps an aggregator's http.Handler: in a traced run every
// request served is a span named name, and tee, when set, keeps a copy of
// every POSTed frame for the single-threaded frame probe.
type spanHandler struct {
	tr   *tracer
	name string
	next http.Handler
	tee  *frameTee
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tee != nil && r.Method == http.MethodPost {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h.tee.add(body)
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	if !h.tr.active() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := h.tr.begin(h.name, spanID(parent), 0)
	h.next.ServeHTTP(w, r)
	h.tr.end(id, r.ContentLength)
}

// wrapHandler returns next itself in an untraced run.
func wrapHandler(e *env, name string, next http.Handler, tee *frameTee) http.Handler {
	if e.tr == nil {
		return next
	}
	return &spanHandler{tr: e.tr, name: name, next: next, tee: tee}
}

// frameTee keeps wire frames in arrival order, up to max of them.
type frameTee struct {
	mu     sync.Mutex
	max    int
	frames [][]byte
}

func (t *frameTee) add(frame []byte) {
	t.mu.Lock()
	if len(t.frames) < t.max {
		t.frames = append(t.frames, frame)
	}
	t.mu.Unlock()
}

func (t *frameTee) taken() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames
}

// postFrame POSTs one wire frame and reports anything but a 200.
func postFrame(c *http.Client, url string, frame []byte) error {
	resp, err := c.Post(url, fleet.ContentType, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused; the status carries the verdict
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("aggregator answered %s", resp.Status)
	}
	return nil
}
