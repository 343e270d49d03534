package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"vscsistats/internal/core"
)

// stepServer is a receiver for the delivery step: a real aggregator behind
// a handler that records every frame as "kind seq base_seq" and answers
// the first frame after script as told — "409" and "500" without applying
// it, "applied-then-500" after applying it (the lost ack); every later
// frame passes through.
type stepServer struct {
	g   *Aggregator
	url string

	mu    sync.Mutex
	reply string
	sent  []string
}

func newStepServer(t *testing.T) *stepServer {
	t.Helper()
	s := &stepServer{g: NewAggregator(AggregatorConfig{StaleAfter: time.Hour})}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		b, err := DecodeBatch(bytes.NewReader(body))
		if err != nil {
			t.Errorf("sender wrote an undecodable frame: %v", err)
			return
		}
		s.mu.Lock()
		reply := s.reply
		s.reply = ""
		s.sent = append(s.sent, fmt.Sprintf("%s %d %d", b.kind(), b.Seq, b.BaseSeq))
		s.mu.Unlock()
		switch reply {
		case "409":
			http.Error(w, "resync", http.StatusConflict)
			return
		case "500":
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.g.ServeHTTP(rec, r)
		if reply == "applied-then-500" {
			http.Error(w, "ack lost", http.StatusInternalServerError)
			return
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	s.url = srv.URL + "/fleet/push"
	return s
}

// script sets the answer to the next frame and forgets the frames so far.
func (s *stepServer) script(reply string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reply, s.sent = reply, nil
}

func (s *stepServer) frames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.sent)
}

// holds reports whether the receiver's merged view is exactly snaps.
func (s *stepServer) holds(snaps []*core.Snapshot) bool {
	return sameSnapshot(s.g.ClusterSnapshot(false), core.Aggregate("cluster", "*", snaps...))
}

// TestDeliverStep is the delivery rule as a table: rows are the content
// against the chain (no base yet, changed, unchanged, disk set changed),
// columns the receiver's reply to the first frame. Each cell pins the
// frames sent with their sequence numbers, whether the step failed, and
// the base it leaves; then the owner's next attempt at the same content
// must leave the receiver holding exactly that content.
func TestDeliverStep(t *testing.T) {
	type cell struct {
		frames []string
		failed bool
		base   uint64 // 0: no base
	}
	rows := []struct {
		name string
		// content prepares reg and returns the step's content; base says
		// whether reg's state as seq 1 is acknowledged first.
		base    bool
		content func(reg *core.Registry) []*core.Snapshot
		want    map[string]cell
	}{
		{"no base", false, (*core.Registry).Snapshots, map[string]cell{
			"200":              {[]string{"full 1 0"}, false, 1},
			"409":              {[]string{"full 1 0"}, true, 0},
			"500":              {[]string{"full 1 0"}, true, 0},
			"applied-then-500": {[]string{"full 1 0"}, true, 0},
		}},
		{"changed", true, func(reg *core.Registry) []*core.Snapshot {
			feed(reg.List()[0], 71, 40)
			return reg.Snapshots()
		}, map[string]cell{
			"200":              {[]string{"delta 2 1"}, false, 2},
			"409":              {[]string{"delta 2 1", "full 2 0"}, false, 2},
			"500":              {[]string{"delta 2 1"}, true, 1},
			"applied-then-500": {[]string{"delta 2 1"}, true, 1},
		}},
		{"unchanged", true, (*core.Registry).Snapshots, map[string]cell{
			"200":              {[]string{"heartbeat 1 0"}, false, 1},
			"409":              {[]string{"heartbeat 1 0", "full 2 0"}, false, 2},
			"500":              {[]string{"heartbeat 1 0"}, true, 1},
			"applied-then-500": {[]string{"heartbeat 1 0"}, true, 1},
		}},
		{"disk set changed", true, func(reg *core.Registry) []*core.Snapshot {
			col := core.NewCollector("vm-new", diskName(0))
			col.Enable()
			feed(col, 72, 40)
			reg.Register(col)
			return reg.Snapshots()
		}, map[string]cell{
			"200":              {[]string{"full 2 0"}, false, 2},
			"409":              {[]string{"full 2 0"}, true, 1},
			"500":              {[]string{"full 2 0"}, true, 1},
			"applied-then-500": {[]string{"full 2 0"}, true, 1},
		}},
	}
	for _, row := range rows {
		for _, reply := range []string{"200", "409", "500", "applied-then-500"} {
			t.Run(row.name+"/"+reply, func(t *testing.T) {
				rs := newStepServer(t)
				snd := newSender(rs.url, nil, 0, nil, rand.New(rand.NewSource(1)))
				reg := makeRegistry(5, 1, 2, 100)
				var c chain
				if row.base {
					if _, err := snd.deliver(&c, snd.frame("esx-s", c.next(), 1, reg.Snapshots())); err != nil {
						t.Fatal(err)
					}
				}
				snaps := row.content(reg)
				rs.script(reply)
				_, err := snd.deliver(&c, snd.frame("esx-s", c.next(), 2, snaps))

				want := row.want[reply]
				if got := rs.frames(); !slices.Equal(got, want.frames) {
					t.Errorf("frames sent %q, want %q", got, want.frames)
				}
				if (err != nil) != want.failed {
					t.Errorf("step error %v, want failed=%v", err, want.failed)
				}
				var base uint64
				if c.base != nil {
					base = c.base.seq
				}
				if base != want.base {
					t.Errorf("base after the step = %d, want %d", base, want.base)
				}

				// The owner's next attempt converges, whatever the reply was.
				if _, err := snd.deliver(&c, snd.frame("esx-s", c.next(), 3, snaps)); err != nil {
					t.Fatalf("next attempt: %v", err)
				}
				if !rs.holds(snaps) {
					t.Error("receiver does not hold the content after the next attempt")
				}
			})
		}
	}
}

// TestDeliverNeverHeartbeatsPastALostAck: a delta is applied but its ack
// is lost, and the content then returns to the acknowledged base (a
// re-exporter's rendering shrinks back when a host goes stale). A
// heartbeat at the base's seq would be a duplicate to a receiver already
// past it, leaving it holding the lost-ack content; the step sends full
// state instead.
func TestDeliverNeverHeartbeatsPastALostAck(t *testing.T) {
	rs := newStepServer(t)
	snd := newSender(rs.url, nil, 0, nil, rand.New(rand.NewSource(1)))
	reg := makeRegistry(6, 1, 2, 100)
	var c chain
	base := reg.Snapshots()
	if _, err := snd.deliver(&c, snd.frame("esx-s", c.next(), 1, base)); err != nil {
		t.Fatal(err)
	}
	feed(reg.List()[1], 73, 40)
	rs.script("applied-then-500")
	if _, err := snd.deliver(&c, snd.frame("esx-s", c.next(), 2, reg.Snapshots())); err == nil {
		t.Fatal("lost ack reported as delivered")
	}
	rs.script("")
	if _, err := snd.deliver(&c, snd.frame("esx-s", c.next(), 3, base)); err != nil {
		t.Fatal(err)
	}
	if got, want := rs.frames(), []string{"full 3 0"}; !slices.Equal(got, want) {
		t.Errorf("frames sent %q, want %q", got, want)
	}
	if !rs.holds(base) {
		t.Error("receiver kept the lost-ack content")
	}
}
