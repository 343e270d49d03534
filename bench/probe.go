package main

import (
	"bytes"
	"os"
	"time"

	"vscsistats/internal/core"
	"vscsistats/internal/fleet"
)

// probeFrames replays wire frames, in the order an aggregator received
// them, through each part of serving a push on one goroutine: decode,
// validate, ingest into a memory-only shadow aggregator, ingest into a
// shadow with a segment log (the difference is the log append), and the
// sender's side of the same frame, encode. Called alone, the parts neither
// overlap nor wait, so `fleet.aggregator.serve` splits into rows.
func probeFrames(e *env, res *result, frames [][]byte, shards int) {
	if len(frames) == 0 {
		return
	}
	dir, err := os.MkdirTemp(e.dataDir, "probe-")
	if err != nil {
		res.problem("frame probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	mem := fleet.NewAggregator(fleet.AggregatorConfig{Shards: shards, StaleAfter: time.Hour})
	logged, _, err := fleet.OpenAggregator(fleet.AggregatorConfig{Shards: shards, StaleAfter: time.Hour, DataDir: dir, SyncInterval: noPeriodicSync})
	if err != nil {
		res.problem("frame probe: %v", err)
		return
	}
	defer logged.Close()

	root := e.tr.begin("probe.frames", e.root, 0)
	var decodeNs, validateNs, encodeNs, memNs, logNs, bytesTotal float64
	var mid []*core.Snapshot
	// step times one part of one frame under its own span.
	step := func(name string, total *float64, fn func() error) error {
		id := e.tr.begin(name, root, 0)
		t0 := time.Now()
		err := fn()
		*total += float64(time.Since(t0))
		e.tr.end(id, 1)
		return err
	}
	one := func(frame []byte) error {
		var b *fleet.Batch
		if err := step("fleet.DecodeBatch", &decodeNs, func() (err error) {
			b, err = fleet.DecodeBatch(bytes.NewReader(frame))
			return err
		}); err != nil {
			return err
		}
		if err := step("fleet.Batch.Validate", &validateNs, b.Validate); err != nil {
			return err
		}
		if err := step("fleet.EncodeBatchBytes", &encodeNs, func() error {
			_, err := fleet.EncodeBatchBytes(b)
			return err
		}); err != nil {
			return err
		}
		if err := step("fleet.Aggregator.Ingest[memory]", &memNs, func() error { return mem.Ingest(b, "push") }); err != nil {
			return err
		}
		// The logged shadow gets its own decode: an aggregator keeps the
		// snapshots it is handed.
		b2, err := fleet.DecodeBatch(bytes.NewReader(frame))
		if err != nil {
			return err
		}
		return step("fleet.Aggregator.Ingest[logged]", &logNs, func() error { return logged.Ingest(b2, "push") })
	}
	for i, frame := range frames {
		if err := one(frame); err != nil {
			res.problem("frame probe: frame %d: %v", i, err)
			return
		}
		bytesTotal += float64(len(frame))
		if i == len(frames)/2 {
			mid = mem.VMSnapshots(true)
		}
	}
	e.tr.end(root, int64(len(frames)))

	n := float64(len(frames))
	res.put("fleet.wire.decode_us", decodeNs/n/1e3, nil)
	res.put("fleet.wire.validate_us", validateNs/n/1e3, nil)
	res.put("fleet.wire.encode_us", encodeNs/n/1e3, nil)
	res.put("fleet.wire.frame_bytes", bytesTotal/n, nil)
	res.put("fleet.aggregator.ingest_us", memNs/n/1e3, nil)
	res.put("fleet.log.append_us", (logNs-memNs)/n/1e3, nil)

	// Snapshot.Sub is what an agent pays per disk to render a delta.
	earlier := map[string]*core.Snapshot{}
	for _, s := range mid {
		earlier[s.VM] = s
	}
	var subs []float64
	for _, s := range mem.VMSnapshots(true) {
		if prev := earlier[s.VM]; prev != nil {
			t0 := time.Now()
			delta := s.Sub(prev)
			subs = append(subs, float64(time.Since(t0))/1e3)
			if !prev.ApplyDelta(delta).StateEquals(s) {
				res.problem("frame probe: %s: earlier.ApplyDelta(later.Sub(earlier)) != later", s.VM)
			}
		}
	}
	if len(subs) > 0 {
		res.putMedian("core.sub_us", subs)
	}
	if got, want := logged.ClusterSnapshot(true), mem.ClusterSnapshot(true); !got.StateEquals(want) {
		res.problem("frame probe: logged and memory-only shadow aggregators disagree")
	}
}
