package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// TestChromeTraceExport checks the Chrome trace-event writer: the output
// parses as a JSON array; "M" metadata names every process and thread
// first, with pids by sorted process name and tids by sorted thread name
// within each process; then the events follow in the order given, complete
// slices with ts and dur, instants with their scope, and empty Args as {}.
func TestChromeTraceExport(t *testing.T) {
	in := []ChromeEvent{
		{Process: "vm vmB", Thread: "disk d1", Name: "enable", Cat: "control", TS: 0, Instant: "p"},
		{Process: "vm vmA", Thread: "disk d0", Name: "READ(10)", Cat: "io", TS: 100, Dur: 250, Args: `{"seq":1}`},
		{Process: "vm vmB", Thread: "disk d1", Name: "WRITE(10)", Cat: "io", TS: 200, Dur: 700},
		{Process: "vm vmB", Thread: "disk d0", Name: "snapshot", Cat: "control", TS: 900, Instant: "t"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Ph, Name, Cat, S string
		Pid, Tid         int
		TS               int64
		Dur              *int64
		Args             map[string]any
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	got := []string{}
	for _, e := range out {
		switch e.Ph {
		case "M":
			got = append(got, fmt.Sprintf("M %s %d/%d %v", e.Name, e.Pid, e.Tid, e.Args["name"]))
		case "X":
			if e.Dur == nil {
				t.Fatalf("slice %s has no dur", e.Name)
			}
			got = append(got, fmt.Sprintf("X %s %s %d/%d %d+%d %v", e.Name, e.Cat, e.Pid, e.Tid, e.TS, *e.Dur, e.Args))
		case "i":
			if e.Dur != nil {
				t.Errorf("instant %s has a dur", e.Name)
			}
			got = append(got, fmt.Sprintf("i %s %s %s %d/%d %d %v", e.Name, e.Cat, e.S, e.Pid, e.Tid, e.TS, e.Args))
		default:
			t.Errorf("unexpected event %+v", e)
		}
	}
	want := []string{
		"M process_name 1/0 vm vmA",
		"M process_name 2/0 vm vmB",
		"M thread_name 1/1 disk d0",
		"M thread_name 2/1 disk d0",
		"M thread_name 2/2 disk d1",
		"i enable control p 2/2 0 map[]",
		"X READ(10) io 1/1 100+250 map[seq:1]",
		"X WRITE(10) io 2/2 200+700 map[]",
		"i snapshot control t 2/1 900 map[]",
	}
	if !slices.Equal(got, want) {
		t.Errorf("chrome trace:\n  %s\nwant:\n  %s", got, want)
	}

	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil || len(out) != 0 {
		t.Errorf("empty trace %q: %d events, %v", buf.Bytes(), len(out), err)
	}
}
