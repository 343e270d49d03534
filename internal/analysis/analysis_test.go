package analysis

import (
	"strings"
	"testing"

	"vscsistats/internal/histogram"
	"vscsistats/internal/scsi"
	"vscsistats/internal/trace"
)

func rec(seq int, op scsi.OpCode, lba uint64, blocks uint32, issue, lat int64) trace.Record {
	return trace.Record{
		Seq: uint64(seq), VM: "v", Disk: "d", Op: op, LBA: lba, Blocks: blocks,
		IssueMicros: issue, CompleteMicros: issue + lat, Status: scsi.StatusGood,
	}
}

func TestExactOf(t *testing.T) {
	var vals []int64
	for v := int64(1); v <= 100; v++ {
		vals = append(vals, v)
	}
	e := ExactOf(vals)
	if e.Count != 100 || e.Min != 1 || e.Max != 100 {
		t.Fatalf("%+v", e)
	}
	if e.Mean != 50.5 {
		t.Errorf("Mean = %v", e.Mean)
	}
	if e.P50 != 50 || e.P95 != 95 || e.P99 != 99 {
		t.Errorf("percentiles: %+v", e)
	}
	if ExactOf(nil).Count != 0 {
		t.Error("empty ExactOf should be zero")
	}
	if e.String() == "" {
		t.Error("String empty")
	}
}

func TestAnalyzeReport(t *testing.T) {
	recs := []trace.Record{
		rec(0, scsi.OpRead10, 0, 8, 0, 1000),
		rec(1, scsi.OpRead10, 8, 8, 500, 1000),           // seek 1
		rec(2, scsi.OpWrite10, 1000, 16, 900, 3000),      // seek 985
		{Seq: 3, VM: "v", Disk: "d", Op: scsi.OpInquiry}, // invisible
	}
	r := Analyze(recs)
	if r.Commands != 3 || r.Reads != 2 || r.Writes != 1 {
		t.Fatalf("%+v", r)
	}
	if r.SeekDistance.Count != 2 || r.SeekDistance.Min != 1 || r.SeekDistance.Max != 985 {
		t.Errorf("seek: %+v", r.SeekDistance)
	}
	if r.Interarrival.Count != 2 || r.Interarrival.Min != 400 || r.Interarrival.Max != 500 {
		t.Errorf("interarrival: %+v", r.Interarrival)
	}
	if r.WriteLatency.Mean != 3000 {
		t.Errorf("write latency: %+v", r.WriteLatency)
	}
	if !strings.Contains(r.String(), "3 commands (2 reads, 1 writes)") {
		t.Errorf("String:\n%s", r)
	}
}

func TestSeekLatencyCorrelation(t *testing.T) {
	recs := []trace.Record{
		rec(0, scsi.OpRead10, 0, 8, 0, 200),
		rec(1, scsi.OpRead10, 8, 8, 100, 200),           // seek 1, fast
		rec(2, scsi.OpRead10, 9_000_000, 8, 200, 20000), // far seek, slow
	}
	h := SeekLatency(recs)
	if h.Total != 2 {
		t.Fatalf("Total = %d", h.Total)
	}
	// The far/slow sample must land in a high-seek, high-latency cell: the
	// seek overflow bin and a latency bin above 15 ms hold it.
	var far, slow int64
	for xi, row := range h.Counts {
		for yi, c := range row {
			if xi == len(h.XEdges) {
				far += c
			}
			if yi > 0 && h.YEdges[yi-1] >= 15000 {
				slow += c
			}
		}
	}
	if far != 1 || slow != 1 {
		t.Errorf("far seeks %d, slow samples %d, want 1 and 1\n%v", far, slow, h.Counts)
	}
}

func TestDistance(t *testing.T) {
	a := histogram.New("a", "u", []int64{10, 20})
	b := histogram.New("b", "u", []int64{10, 20})
	for i := 0; i < 10; i++ {
		a.Insert(5)
		b.Insert(5)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if d := Distance(sa, sb); d != 0 {
		t.Errorf("identical distance = %v", d)
	}
	c := histogram.New("c", "u", []int64{10, 20})
	for i := 0; i < 10; i++ {
		c.Insert(15)
	}
	if d := Distance(sa, c.Snapshot()); d != 1 {
		t.Errorf("disjoint distance = %v", d)
	}
	empty := histogram.New("e", "u", []int64{10, 20}).Snapshot()
	if Distance(empty, empty) != 0 || Distance(sa, empty) != 1 {
		t.Error("empty-histogram distances wrong")
	}
}

func TestDetectStreamsSingle(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 20; i++ {
		recs = append(recs, rec(i, scsi.OpRead10, uint64(i*8), 8, int64(i*100), 500))
	}
	streams := DetectStreams(recs, DefaultStreamConfig())
	if len(streams) != 1 {
		t.Fatalf("streams: %v", streams)
	}
	s := streams[0]
	if s.Commands != 20 || s.StartLBA != 0 || s.Sectors != 160 || s.Writes {
		t.Errorf("stream: %+v", s)
	}
}

func TestDetectStreamsInterleaved(t *testing.T) {
	// Two interleaved sequential streams plus random noise.
	var recs []trace.Record
	seq := 0
	add := func(op scsi.OpCode, lba uint64) {
		recs = append(recs, rec(seq, op, lba, 8, int64(seq*100), 500))
		seq++
	}
	for i := 0; i < 30; i++ {
		add(scsi.OpRead10, uint64(i*8))
		add(scsi.OpWrite10, 5_000_000+uint64(i*8))
		add(scsi.OpRead10, uint64(1_000_000+i*977_531)) // scattered noise
	}
	streams := DetectStreams(recs, DefaultStreamConfig())
	if len(streams) < 2 {
		t.Fatalf("found %d streams, want >= 2", len(streams))
	}
	if streams[0].Commands != 30 || streams[1].Commands != 30 {
		t.Errorf("top streams: %v, %v", streams[0], streams[1])
	}
	// One is the write stream.
	if streams[0].Writes == streams[1].Writes {
		t.Errorf("expected one read and one write stream: %v %v", streams[0], streams[1])
	}
}

func TestDetectStreamsRespectsSlack(t *testing.T) {
	// Strided reads with gaps of 8 sectors: slack 16 keeps them one stream,
	// slack 0 splits them all.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(i, scsi.OpRead10, uint64(i*16), 8, int64(i*100), 500))
	}
	cfg := DefaultStreamConfig()
	if got := DetectStreams(recs, cfg); len(got) != 1 {
		t.Errorf("slack 16: %v", got)
	}
	cfg.SlackSectors = 0
	cfg.MinCommands = 1
	if got := DetectStreams(recs, cfg); len(got) < 5 {
		t.Errorf("slack 0 should fragment: %v", got)
	}
}

func TestDetectStreamsMaxActiveEviction(t *testing.T) {
	// More interleaved streams than MaxActive: detection degrades
	// gracefully (exactly the paper's caveat about window size N, §3.1).
	var recs []trace.Record
	seq := 0
	for i := 0; i < 20; i++ {
		for s := 0; s < 4; s++ {
			recs = append(recs, rec(seq, scsi.OpRead10,
				uint64(s)*10_000_000+uint64(i*8), 8, int64(seq*100), 500))
			seq++
		}
	}
	cfg := DefaultStreamConfig()
	cfg.MaxActive = 4
	if got := DetectStreams(recs, cfg); len(got) != 4 {
		t.Errorf("4 tracked streams should survive: %v", got)
	}
	cfg.MaxActive = 2
	cfg.MinCommands = 1
	got := DetectStreams(recs, cfg)
	// With only 2 slots for 4 streams, every arrival evicts: detection
	// degrades to fragments rather than finding the long runs.
	if len(got) <= 4 {
		t.Errorf("eviction should fragment the streams, got %d", len(got))
	}
}

func TestStreamSummary(t *testing.T) {
	var recs []trace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, rec(i, scsi.OpRead10, uint64(i*8), 8, int64(i*100), 500))
	}
	out := StreamSummary(recs, DefaultStreamConfig())
	if !strings.Contains(out, "1 sequential streams covering 8/8 commands") {
		t.Errorf("summary:\n%s", out)
	}
}
