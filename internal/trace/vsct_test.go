package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden traces all hold goldenRecords. trace_v1.vsct and
// trace_stream_legacy.bin were written by the version 1 encoder and the
// headerless stream writer that preceded VSCT version 2; trace_v2.vsct is
// what Writer writes today.
var goldenFiles = []string{"trace_v1.vsct", "trace_stream_legacy.bin", "trace_v2.vsct"}

func goldenRecords() []Record { return Synthesize(33, 96) }

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encode is Write into memory.
func encode(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyStream encodes recs as the headerless frame stream: a version 2
// trace is that stream behind a 6-byte header.
func legacyStream(t testing.TB, recs []Record) []byte {
	t.Helper()
	return encode(t, recs)[len(magic)+2:]
}

// Traces written before version 2 still read record for record.
func TestLegacyTracesStillRead(t *testing.T) {
	want := goldenRecords()
	if vms := len(vmsOf(want)); vms < 2 || len(want) < 64 {
		t.Fatalf("golden set too small: %d records over %d VMs", len(want), vms)
	}
	for _, c := range []struct {
		file   string
		format Format
	}{
		{"trace_v1.vsct", FormatNative},
		{"trace_stream_legacy.bin", FormatStream},
	} {
		src, f, err := Open(bytes.NewReader(readGolden(t, c.file)), FormatUnknown)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if f != c.format {
			t.Errorf("%s: detected %v, want %v", c.file, f, c.format)
		}
		got, err := ReadAll(src)
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		compareRecords(t, c.file, want, got)
	}
}

func vmsOf(recs []Record) map[string]bool {
	vms := map[string]bool{}
	for _, r := range recs {
		vms[r.VM] = true
	}
	return vms
}

// Writer reproduces the version 2 golden byte for byte, and Write is the
// same encoding.
func TestWriterMatchesGolden(t *testing.T) {
	want := readGolden(t, "trace_v2.vsct")
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	for _, r := range goldenRecords() {
		if err := tw.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Writer output (%d bytes) differs from trace_v2.vsct (%d bytes)", buf.Len(), len(want))
	}
	if !bytes.Equal(encode(t, goldenRecords()), want) {
		t.Fatal("Write output differs from Writer output")
	}
	if !bytes.HasPrefix(want, []byte("VSCT\x02\x00")) {
		t.Fatalf("version 2 header: % x", want[:6])
	}
}

// A name the u16 length prefix cannot carry is refused with a sticky
// error, not written as a frame no reader can parse.
func TestWriterRefusesLongName(t *testing.T) {
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	ok := Record{VM: "vm", Disk: "d"}
	if err := tw.Append(ok); err != nil {
		t.Fatal(err)
	}
	long := Record{VM: strings.Repeat("v", 70000), Disk: "d"}
	if err := tw.Append(long); err == nil {
		t.Fatal("Append of a 70000-byte name succeeded")
	}
	if err := tw.Append(ok); err == nil {
		t.Fatal("the error must be sticky")
	}
	if err := tw.Close(); err == nil {
		t.Fatal("Close must report the refused name")
	}
	if tw.Count() != 1 {
		t.Errorf("Count = %d, want 1", tw.Count())
	}
}

// Name ids count up from 0: a stream may redefine an id it already has
// (two legacy streams written back to back) but not skip ahead.
func TestNameIDs(t *testing.T) {
	recs := goldenRecords()
	joined := append(legacyStream(t, recs[:10]), legacyStream(t, recs[10:])...)
	got, err := ReadAll(NewStreamSource(bytes.NewReader(joined)))
	if err != nil {
		t.Fatal(err)
	}
	compareRecords(t, "concatenated streams", recs, got)

	skip := []byte{'S', 1, 0, 1, 0, 'x'}
	if _, err := ReadAll(NewStreamSource(bytes.NewReader(skip))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("id 1 before id 0: %v", err)
	}
}
