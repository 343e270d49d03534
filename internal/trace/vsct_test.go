package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The golden traces all hold goldenRecords. trace_v2.vsct is what Writer
// writes; trace_v1.vsct and trace_stream_legacy.bin were written by the
// version 1 encoder and the headerless stream writer that preceded version
// 2, and are kept to pin their refusal.
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

// Traces written before version 2 are refused, never misread: a version 1
// file is detected by its magic and fails with ErrBadVersion, and a
// headerless stream is not detected at all (nor read as VSCT when named).
// Both upgrade to the version 2 golden through the last commit that read
// them (DESIGN.md §8).
func TestLegacyTracesRefused(t *testing.T) {
	src, f, err := Open(bytes.NewReader(readGolden(t, "trace_v1.vsct")), FormatUnknown)
	if err != nil || f != FormatNative {
		t.Fatalf("version 1: detected %v, %v; want native", f, err)
	}
	if recs, err := ReadAll(src); !errors.Is(err, ErrBadVersion) || len(recs) != 0 {
		t.Errorf("version 1: %d records, %v; want none and ErrBadVersion", len(recs), err)
	}

	stream := readGolden(t, "trace_stream_legacy.bin")
	if _, f, err := Open(bytes.NewReader(stream), FormatUnknown); err == nil {
		t.Errorf("headerless stream detected as %v", f)
	}
	src, _, err = Open(bytes.NewReader(stream), FormatNative)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadAll(src); !errors.Is(err, ErrBadMagic) || len(recs) != 0 {
		t.Errorf("headerless stream read as native: %d records, %v; want none and ErrBadMagic", len(recs), err)
	}
	if _, err := ParseFormat("stream"); err == nil {
		t.Error(`ParseFormat("stream") still names a format`)
	}
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

// Name ids count up from 0 and are defined exactly once: a trace may
// neither skip ahead nor redefine an id, as the frames of two traces
// written back to back would.
func TestNameIDs(t *testing.T) {
	recs := goldenRecords()
	header := encode(t, nil)
	frames := func(recs []Record) []byte { return encode(t, recs)[len(header):] }
	for name, data := range map[string][]byte{
		"redefined id": slices.Concat(header, frames(recs[:10]), frames(recs[10:])),
		"skipped id":   slices.Concat(header, []byte{'S', 1, 0, 1, 0, 'x'}),
	} {
		if _, err := ReadAll(NewNativeSource(bytes.NewReader(data))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}
