package trace

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// The chunked CSV reader against the line-scanning oracle: at every chunk
// size, through short reads, through a read error at every offset, and
// around the line cap; plus what a source costs in goroutines and
// allocations.

// msrTrace renders n well-formed MSR lines over four disks.
func msrTrace(n int) []byte {
	var sb strings.Builder
	ts := uint64(1_000_000)
	for i := 0; i < n; i++ {
		sb.WriteString(uitoa(ts))
		sb.WriteString(",host")
		sb.WriteString(uitoa(uint64(i % 4)))
		sb.WriteString(",0,Read,4096,512,100\n")
		ts += 17
	}
	return []byte(sb.String())
}

// alibabaTrace renders n well-formed Alibaba lines over four devices.
func alibabaTrace(n int) []byte {
	var sb strings.Builder
	ts := uint64(1_000_000)
	for i := 0; i < n; i++ {
		sb.WriteString(uitoa(uint64(60 + i%4)))
		sb.WriteString(",W,4096,512,")
		sb.WriteString(uitoa(ts))
		sb.WriteByte('\n')
		ts += 17
	}
	return []byte(sb.String())
}

// csvDialectSamples are short inputs of each dialect with blank, CRLF,
// malformed and unterminated lines among the good ones.
func csvDialectSamples(msr bool) [][]byte {
	if msr {
		return [][]byte{
			[]byte(msrSample),
			[]byte("garbage\n1000,host,0,Read,0,512\n\r\n1000,host,0,Read,0,512,10\r\n900,host,0,Read,0,512,10\n1010,host,1,Write,512,512,1.75"),
			[]byte(msrSlashIdentities),
			msrTrace(40),
		}
	}
	return [][]byte{
		[]byte(alibabaSample),
		[]byte("64,R,4096,1024\n\n64,W,0,0,0\r\n64,X,1,1,1\n7,r,512,512,1000005.9"),
		alibabaTrace(40),
	}
}

func TestCSVShortReadsMatchOracle(t *testing.T) {
	for _, msr := range []bool{true, false} {
		for _, data := range csvDialectSamples(msr) {
			for _, size := range csvTestChunkSizes {
				for _, short := range []func(io.Reader) io.Reader{iotest.OneByteReader, iotest.HalfReader, iotest.DataErrReader} {
					want := newOracleCSV(msr, bytes.NewReader(data))
					requireSameAsOracle(t, want, newCSVSource(msr, short(bytes.NewReader(data)), size))
				}
			}
		}
	}
}

// failAfter yields the first k bytes of data, then errBoom on every read.
type failAfter struct {
	data []byte
	k    int
}

var errBoom = errors.New("boom")

func (f *failAfter) Read(p []byte) (int, error) {
	if f.k == 0 {
		return 0, errBoom
	}
	n := copy(p, f.data[:min(f.k, len(f.data))])
	f.data, f.k = f.data[n:], f.k-n
	return n, nil
}

// TestCSVReadErrorMatchesOracle: a reader that fails after k bytes, for
// every k, delivers the records of every whole line before the failure and
// then the error, exactly as the line scanner did.
func TestCSVReadErrorMatchesOracle(t *testing.T) {
	for _, msr := range []bool{true, false} {
		for _, data := range csvDialectSamples(msr) {
			for k := 0; k <= len(data); k++ {
				for _, size := range []int{1, 7, 0} {
					want := newOracleCSV(msr, &failAfter{data, k})
					requireSameAsOracle(t, want, newCSVSource(msr, &failAfter{data, k}, size))
				}
			}
		}
	}
}

// TestCSVLongLinesAtTheCap: a line is discarded exactly when it holds more
// than csvMaxLine bytes with its newline, wherever the chunks cut it.
func TestCSVLongLinesAtTheCap(t *testing.T) {
	good := "1000,host,0,Read,0,512,10\n"
	var cases []string
	for _, n := range []int{csvMaxLine - 1, csvMaxLine, csvMaxLine + 1} {
		pad := strings.Repeat("x", n)
		cases = append(cases,
			good+pad+"\n"+good, // newline-terminated, mid-trace
			good+pad+"\r\n"+good,
			good+pad,               // the last line, unterminated
			pad+"\n"+pad+"\n"+good, // two in a row
		)
	}
	for _, c := range cases {
		for _, size := range []int{1, 5, 4096, 0} {
			data := []byte(c)
			requireSameAsOracle(t, newOracleCSV(true, bytes.NewReader(data)), newCSVSource(true, bytes.NewReader(data), size))
		}
	}
}

// TestCSVAbandonedSourceLeavesNoGoroutine: a source read part way and
// dropped leaves nothing running once its chunks finish parsing.
func TestCSVAbandonedSourceLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	for _, msr := range []bool{true, false} {
		data := msrTrace(20000)
		if !msr {
			data = alibabaTrace(20000)
		}
		src := newCSVSource(msr, bytes.NewReader(data), 4096)
		var rec Record
		for i := 0; i < 10; i++ {
			if err := src.Next(&rec); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(src.reader().queue); n != 3 {
			t.Fatalf("%d chunks parse ahead at GOMAXPROCS 4, want 3", n)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the abandoned sources, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCSVSameRecordsAtOneAndTwoProcs: parsing inline and parsing ahead give
// the same records.
func TestCSVSameRecordsAtOneAndTwoProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, msr := range []bool{true, false} {
		data := append(msrTrace(5000), csvDialectSamples(msr)[1]...)
		if !msr {
			data = append(alibabaTrace(5000), csvDialectSamples(msr)[1]...)
		}
		var runs [2][]Record
		var bad [2]uint64
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			src := newCSVSource(msr, bytes.NewReader(data), 1000)
			if async := src.reader().chunks > 1; async != (procs > 1) {
				t.Fatalf("GOMAXPROCS %d: parses ahead = %v", procs, async)
			}
			var err error
			if runs[i], err = ReadAll(src); err != nil {
				t.Fatal(err)
			}
			bad[i] = src.BadLines()
		}
		compareRecords(t, "GOMAXPROCS 2", runs[0], runs[1])
		if len(runs[0]) < 5000 || bad[0] != bad[1] {
			t.Fatalf("%d records, BadLines %v", len(runs[0]), bad)
		}
	}
}

// Steady-state Alibaba parsing must not allocate per record either: each
// device's name mints once.
func TestAlibabaSourceAllocsBounded(t *testing.T) {
	data := alibabaTrace(50000)
	allocs := testing.AllocsPerRun(1, func() {
		src := newCSVSource(false, bytes.NewReader(data), 0)
		var rec Record
		var n int
		for src.Next(&rec) == nil {
			n++
		}
		if n != 50000 {
			t.Fatalf("parsed %d records", n)
		}
	})
	if allocs > 500 {
		t.Fatalf("Alibaba parse: %v allocs for 50k records", allocs)
	}
}
