package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"vscsistats/internal/core"
	"vscsistats/internal/scsi"
	"vscsistats/internal/simclock"
	"vscsistats/internal/vscsi"
)

func sampleRecords(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		op := scsi.OpRead10
		if i%3 == 0 {
			op = scsi.OpWrite10
		}
		out[i] = Record{
			Seq:            uint64(i),
			IssueMicros:    int64(i) * 100,
			CompleteMicros: int64(i)*100 + 2000,
			VM:             "vm" + string(rune('A'+i%2)),
			Disk:           "scsi0:0",
			Op:             op,
			LBA:            uint64(i) * 8,
			Blocks:         8,
			Outstanding:    uint16(i % 32),
			Status:         scsi.StatusGood,
		}
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := sampleRecords(100)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestWriteReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := Read(strings.NewReader("VS")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short: %v", err)
	}
	// Wrong version.
	var buf bytes.Buffer
	Write(&buf, sampleRecords(1))
	b := buf.Bytes()
	b[4] = 99
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Truncated records.
	buf.Reset()
	Write(&buf, sampleRecords(10))
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()-10])); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated: %v", err)
	}
}

// fuzzBinarySource drains src, which reads data: any bytes end in EOF or a
// typed error, never a panic; no record is decoded from bytes that are not
// there; and memory stays within a small multiple of the input.
func fuzzBinarySource(t *testing.T, data []byte, src RecordSource, frameBytes int) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var rec Record
	n := 0
	var err error
	for err = src.Next(&rec); err == nil; err = src.Next(&rec) {
		if n++; n*frameBytes > len(data) {
			t.Fatalf("%d records from %d bytes", n, len(data))
		}
	}
	runtime.ReadMemStats(&after)
	if err != io.EOF && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) {
		t.Fatalf("untyped error: %v", err)
	}
	if again := src.Next(&rec); again != err {
		t.Fatalf("error not sticky: %v then %v", err, again)
	}
	// A name table or a string frame may allocate its claimed length
	// (≤ 64 KiB) once before the read that finds it missing.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+16*uint64(len(data)) {
		t.Fatalf("%d bytes allocated for a %d-byte input", grew, len(data))
	}
}

// binarySeeds seeds a binary-source fuzzer with encoded, cuts of it, a
// redefined name id, the empty input and every golden trace.
func binarySeeds(f *testing.F, encoded []byte) {
	f.Add(encoded)
	f.Add(encoded[:len(encoded)-7])
	f.Add(encoded[:len(encoded)/2])
	f.Add(append(encode(f, nil), 'S', 0, 0, 1, 0, 'a', 'S', 0, 0, 1, 0, 'b'))
	f.Add([]byte{})
	for _, name := range goldenFiles {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

func FuzzNativeSource(f *testing.F) {
	binarySeeds(f, encode(f, Synthesize(1, 10)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBinarySource(t, data, NewNativeSource(bytes.NewReader(data)), recordSize)
	})
}

// Property: round trip is the identity for arbitrary record contents.
func TestRoundTripProperty(t *testing.T) {
	f := func(seq uint64, issue, lat int32, lba uint64, blocks uint32, oio uint16, write bool) bool {
		op := scsi.OpRead16
		if write {
			op = scsi.OpWrite16
		}
		rec := Record{
			Seq: seq, IssueMicros: int64(issue), CompleteMicros: int64(issue) + int64(lat),
			VM: "vm", Disk: "d", Op: op, LBA: lba, Blocks: blocks,
			Outstanding: oio, Status: scsi.StatusGood,
		}
		var buf bytes.Buffer
		if err := Write(&buf, []Record{rec}); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && len(got) == 1 && got[0] == rec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecords(2)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	if !strings.HasPrefix(lines[0], "seq,vm,disk,op") {
		t.Errorf("header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "WRITE(10)") || !strings.Contains(lines[1], ",2000,") {
		t.Errorf("row: %s", lines[1])
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(3)
	tr.Enable()
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 20})
	d.AddObserver(tr)
	for i := 0; i < 5; i++ {
		d.Issue(scsi.Read(uint64(i*8), 8), nil)
	}
	eng.Run()
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d", len(recs))
	}
	if recs[0].Seq != 2 || recs[2].Seq != 4 {
		t.Errorf("ring order: %v", recs)
	}
	if tr.Total() != 5 {
		t.Errorf("Total = %d", tr.Total())
	}
	tr.Reset()
	if len(tr.Records()) != 0 || tr.Total() != 5 {
		t.Error("Reset should clear ring but keep lifetime total")
	}
}

func TestTracerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 should panic")
		}
	}()
	NewTracer(0)
}

// TestTracer drives the one command tracer through vSCSI disks whose
// commands complete 250 µs after issue: the ring keeps the newest entries,
// commands and control verbs alike, oldest first, while Total counts every
// command; capture follows Enable; a control verb lands at the newest
// command's completion time; and the Chrome export renders each command
// as an "X" slice from issue to completion and each verb as an instant.
func TestTracer(t *testing.T) {
	type step struct {
		at      int64  // virtual µs at which the step runs
		disk    string // "vm/disk" to issue on, or "" for a tracer call
		cmd     scsi.Command
		control string // a Control verb, or "enable", "disable", "reset" on the tracer itself
	}
	read := func(at int64, disk string, lba uint64) step { return step{at: at, disk: disk, cmd: scsi.Read(lba, 8)} }
	cases := []struct {
		name     string
		capacity int
		steps    []step
		seqs     []uint64 // what Records returns, by Seq
		total    uint64
		events   []string // the Chrome export, metadata left out
	}{
		{
			name: "wraparound", capacity: 3,
			steps: []step{read(0, "v/d", 0), read(10, "v/d", 8), read(20, "v/d", 16), read(30, "v/d", 24), read(40, "v/d", 32)},
			seqs:  []uint64{2, 3, 4}, total: 5,
			events: []string{"X READ(10) vm v/disk d 20+250", "X READ(10) vm v/disk d 30+250", "X READ(10) vm v/disk d 40+250"},
		},
		{
			name: "capture follows enable", capacity: 10,
			steps: []step{
				{at: 0, control: "disable"}, read(0, "v/d", 0), {at: 300, disk: "v/d", control: "snapshot"},
				{at: 300, control: "enable"}, {at: 300, disk: "v/d", cmd: scsi.Command{Op: scsi.OpTestUnitReady}}, {at: 400, disk: "v/d", cmd: scsi.Write(8, 8)},
			},
			seqs: []uint64{1, 2}, total: 2,
			events: []string{"X TEST UNIT READY vm v/disk d 300+250", "X WRITE(10) vm v/disk d 400+250"},
		},
		{
			name: "control verbs", capacity: 16,
			steps: []step{
				{at: 0, disk: "vmB/d1", control: "enable"}, read(100, "vmA/d0", 0), {at: 400, disk: "vmB/d1", control: "snapshot"},
				{at: 400, disk: "vmB/d1", control: "issue"}, read(500, "vmB/d1", 8), {at: 800, disk: "vmA/d0", control: "reset"},
			},
			seqs: []uint64{0, 0}, total: 2,
			events: []string{"i enable vm vmB/disk d1 0", "X READ(10) vm vmA/disk d0 100+250", "i snapshot vm vmB/disk d1 350",
				"X READ(10) vm vmB/disk d1 500+250", "i reset vm vmA/disk d0 750"},
		},
		{
			name: "control verbs share the ring", capacity: 2,
			steps: []step{read(0, "v/d", 0), {at: 300, disk: "v/d", control: "disable"}, read(400, "v/d", 8)},
			seqs:  []uint64{1}, total: 2,
			events: []string{"i disable vm v/disk d 250", "X READ(10) vm v/disk d 400+250"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer(tc.capacity)
			tr.Enable()
			eng := simclock.NewEngine()
			disks := map[string]*vscsi.Disk{}
			for _, st := range tc.steps {
				if st.disk == "" || disks[st.disk] != nil {
					continue
				}
				vm, name, _ := strings.Cut(st.disk, "/")
				d := vscsi.NewDisk(eng, vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
					eng.After(250*simclock.Microsecond, func(simclock.Time) { done(scsi.StatusGood, scsi.Sense{}) })
				}), vscsi.DiskConfig{VM: vm, Name: name, CapacitySectors: 1 << 20})
				d.AddObserver(tr)
				disks[st.disk] = d
			}
			for _, st := range tc.steps {
				eng.At(simclock.Time(st.at)*simclock.Microsecond, func(simclock.Time) {
					vm, disk, _ := strings.Cut(st.disk, "/")
					switch {
					case st.disk == "" && st.control == "enable":
						tr.Enable()
					case st.disk == "" && st.control == "disable":
						tr.Disable()
					case st.disk == "" && st.control == "reset":
						tr.Reset()
					case st.control != "":
						tr.Control(st.control, vm, disk)
					default:
						disks[st.disk].Issue(st.cmd, nil)
					}
				})
			}
			eng.Run()

			seqs := []uint64{}
			for _, r := range tr.Records() {
				seqs = append(seqs, r.Seq)
			}
			if !slices.Equal(seqs, tc.seqs) || tr.Total() != tc.total {
				t.Errorf("records %v, total %d; want %v, %d", seqs, tr.Total(), tc.seqs, tc.total)
			}
			events := chromeEvents(t, tr)
			if !slices.Equal(events, tc.events) {
				t.Errorf("chrome trace:\n  %s\nwant:\n  %s", strings.Join(events, "\n  "), strings.Join(tc.events, "\n  "))
			}
		})
	}

	rec := httptest.NewRecorder()
	NewTracer(1).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/trace", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET" {
		t.Errorf("POST: %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
	if size := unsafe.Sizeof(entry{}); size > 88 {
		t.Errorf("a retained entry takes %d bytes, want at most 88", size)
	}
}

// chromeEvents serves tr's Chrome trace over HTTP and renders each
// non-metadata event as "ph name process/thread ts[+dur]", checking that
// the metadata names every process and thread an event uses.
func chromeEvents(t *testing.T, tr *Tracer) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	var events []struct {
		Ph, Name, Cat, S string
		Pid, Tid         int
		TS, Dur          int64
		Args             struct{ Name string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &events); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /debug/trace: %d, %v", rec.Code, err)
	}
	procs, threads := map[int]string{}, map[[2]int]string{}
	out := []string{}
	for _, e := range events {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			procs[e.Pid] = e.Args.Name
		case e.Ph == "M":
			threads[[2]int{e.Pid, e.Tid}] = e.Args.Name
		case e.Ph == "X" && e.Cat == "io":
			out = append(out, fmt.Sprintf("X %s %s/%s %d+%d", e.Name, procs[e.Pid], threads[[2]int{e.Pid, e.Tid}], e.TS, e.Dur))
		case e.Ph == "i" && e.Cat == "control" && e.S == "p":
			out = append(out, fmt.Sprintf("i %s %s/%s %d", e.Name, procs[e.Pid], threads[[2]int{e.Pid, e.Tid}], e.TS))
		default:
			t.Errorf("unexpected event %+v", e)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func TestFilters(t *testing.T) {
	recs := []Record{
		{VM: "a", Disk: "d0", Op: scsi.OpRead10, Status: scsi.StatusGood},
		{VM: "b", Disk: "d0", Op: scsi.OpInquiry, Status: scsi.StatusGood},
		{VM: "a", Disk: "d1", Op: scsi.OpWrite10, Status: scsi.StatusCheckCondition},
	}
	if got := Filter(recs, OnlyBlockIO); len(got) != 2 {
		t.Errorf("OnlyBlockIO: %v", got)
	}
	if got := Filter(recs, OnlyDisk("a", "d1")); len(got) != 1 || got[0].Op != scsi.OpWrite10 {
		t.Errorf("OnlyDisk: %v", got)
	}
}

func TestSortByIssue(t *testing.T) {
	recs := []Record{{IssueMicros: 30}, {IssueMicros: 10}, {IssueMicros: 20}}
	SortByIssue(recs)
	if recs[0].IssueMicros != 10 || recs[2].IssueMicros != 30 {
		t.Errorf("sorted: %v", recs)
	}
}

// Replay must rebuild exactly the histograms the online collector built.
func TestReplayMatchesOnline(t *testing.T) {
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		eng.After(simclock.Time(1+r.Cmd.LBA%5)*simclock.Millisecond, func(simclock.Time) {
			done(scsi.StatusGood, scsi.Sense{})
		})
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 24})
	online := core.NewCollector("v", "d")
	online.Enable()
	d.AddObserver(online)
	tr := NewTracer(10000)
	tr.Enable()
	d.AddObserver(tr)

	rng := simclock.NewRand(5)
	for i := 0; i < 500; i++ {
		at := simclock.Time(i) * 500 * simclock.Microsecond
		lba := uint64(rng.Int63n(1 << 20))
		write := rng.Intn(2) == 0
		eng.At(at, func(simclock.Time) {
			if write {
				d.Issue(scsi.Write(lba, 16), nil)
			} else {
				d.Issue(scsi.Read(lba, 8), nil)
			}
		})
	}
	eng.Run()

	replayed := core.NewCollector("v", "d")
	replayed.Enable()
	Replay(tr.Records(), replayed)

	so, sr := online.Snapshot(), replayed.Snapshot()
	if so.Commands != sr.Commands || so.NumReads != sr.NumReads {
		t.Fatalf("counters differ: %d/%d vs %d/%d", so.Commands, so.NumReads, sr.Commands, sr.NumReads)
	}
	for _, m := range core.Metrics() {
		for _, cl := range []core.Class{core.All, core.Reads, core.Writes} {
			ho, hr := so.Histogram(m, cl), sr.Histogram(m, cl)
			if ho.Total != hr.Total {
				t.Errorf("%s/%s totals differ: %d vs %d", m, cl, ho.Total, hr.Total)
				continue
			}
			for i := range ho.Counts {
				if ho.Counts[i] != hr.Counts[i] {
					t.Errorf("%s/%s bin %d: online %d, replay %d", m, cl, i, ho.Counts[i], hr.Counts[i])
					break
				}
			}
		}
	}
}

func TestReplayFromSerializedTrace(t *testing.T) {
	recs := sampleRecords(50)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewCollector("vmA", "scsi0:0")
	col.Enable()
	Replay(Filter(loaded, OnlyDisk("vmA", "scsi0:0")), col)
	s := col.Snapshot()
	if s.Commands != 25 { // half the records belong to vmA
		t.Errorf("Commands = %d, want 25", s.Commands)
	}
	if s.Histogram(core.MetricLatency, core.All).Min != 2000 || s.Histogram(core.MetricLatency, core.All).Max != 2000 {
		t.Errorf("latency min/max = %d/%d, want 2000", s.Histogram(core.MetricLatency, core.All).Min, s.Histogram(core.MetricLatency, core.All).Max)
	}
}

func BenchmarkWrite(b *testing.B) {
	recs := sampleRecords(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	recs := sampleRecords(10000)
	for i := range recs {
		recs[i].VM, recs[i].Disk = "v", "d"
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		col := core.NewCollector("v", "d")
		col.Enable()
		Replay(recs, col)
	}
}

func TestStreamWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewWriter(&buf)
	recs := sampleRecords(200)
	for _, r := range recs {
		if err := sw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != 200 {
		t.Errorf("Count = %d", sw.Count())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestStreamWriterAsObserver(t *testing.T) {
	var buf bytes.Buffer
	sw := NewWriter(&buf)
	eng := simclock.NewEngine()
	backend := vscsi.BackendFunc(func(r *vscsi.Request, done func(scsi.Status, scsi.Sense)) {
		done(scsi.StatusGood, scsi.Sense{})
	})
	d := vscsi.NewDisk(eng, backend, vscsi.DiskConfig{VM: "v", Name: "d", CapacitySectors: 1 << 20})
	d.AddObserver(sw)
	for i := 0; i < 10; i++ {
		d.Issue(scsi.Read(uint64(i*8), 8), nil)
	}
	eng.Run()
	sw.Close()
	got, err := Read(&buf)
	if err != nil || len(got) != 10 {
		t.Fatalf("got %d records, err %v", len(got), err)
	}
	if got[3].Seq != 3 || got[3].VM != "v" {
		t.Errorf("record: %+v", got[3])
	}
}

// readFrames decodes frames behind a version 2 header.
func readFrames(t *testing.T, frames []byte) ([]Record, error) {
	return ReadAll(NewNativeSource(bytes.NewReader(append(encode(t, nil), frames...))))
}

func TestReadStreamErrors(t *testing.T) {
	if _, err := readFrames(t, []byte("Xjunk")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown tag: %v", err)
	}
	// A record whose name id 0 is undefined.
	if _, err := readFrames(t, append([]byte{'R'}, make([]byte, recordSize)...)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("undefined name: %v", err)
	}
	if _, err := readFrames(t, []byte{'S', 0, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated name frame: %v", err)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 4096 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestStreamWriterStopsOnError(t *testing.T) {
	sw := NewWriter(&failWriter{})
	rec := sampleRecords(1)[0]
	for i := 0; i < 1000; i++ {
		sw.Append(rec)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("expected write error")
	}
	if sw.Count() == 1000 {
		t.Error("writer should have stopped counting after the error")
	}
	// The error is sticky: further appends of already-interned names must
	// not resurrect the count (bufio happily buffers them, but the stream
	// is truncated — counting them would report phantom records).
	frozen := sw.Count()
	for i := 0; i < 100; i++ {
		if err := sw.Append(rec); err == nil {
			t.Fatal("Append after error must keep returning it")
		}
	}
	if sw.Count() != frozen {
		t.Errorf("Count moved %d -> %d after the first error", frozen, sw.Count())
	}
	if sw.Err() == nil {
		t.Error("Err() must report the write error")
	}
}

// A flush failure at Close must surface through both Close and Err, even
// when every buffered Write succeeded.
func TestStreamWriterCloseSurfacesFlushError(t *testing.T) {
	sw := NewWriter(&failWriter{n: 4096 - 10}) // fails on first flush
	if err := sw.Append(sampleRecords(1)[0]); err != nil {
		t.Fatalf("buffered append: %v", err)
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close must surface the flush error")
	}
	if sw.Err() == nil {
		t.Error("Err() must keep reporting the flush error after Close")
	}
	if err := sw.Close(); err == nil {
		t.Error("repeated Close must keep returning the error")
	}
}

func BenchmarkWriterAppend(b *testing.B) {
	sw := NewWriter(io.Discard)
	rec := sampleRecords(1)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Seq = uint64(i)
		if err := sw.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
