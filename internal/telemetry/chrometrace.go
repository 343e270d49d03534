package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one entry of a Chrome trace-event view (load the output
// in chrome://tracing or Perfetto). Process and Thread are display names;
// WriteChromeTrace turns them into pids and tids.
type ChromeEvent struct {
	Process, Thread string
	Name, Cat       string
	// TS and Dur are microseconds; Dur applies to complete slices only.
	TS, Dur int64
	// Instant is "" for a complete ("X") slice, else the scope of an
	// instant ("i") event: "t" (thread) or "p" (process).
	Instant string
	// Args is a rendered JSON object ("" for none).
	Args string
}

// WriteChromeTrace renders events as a Chrome trace-event JSON array:
// "M" metadata naming every process and thread first, then the events in
// the order given. Pids and tids are assigned by sorted name (tids per
// process), so repeated captures of the same sources line up.
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	threads := map[[2]string]int{}
	for _, e := range events {
		threads[[2]string{e.Process, e.Thread}] = 0
	}
	keys := make([][2]string, 0, len(threads))
	for k := range threads {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	sep := ""
	emit := func(format string, args ...any) {
		bw.WriteString(sep)
		sep = ",\n"
		fmt.Fprintf(bw, format, args...)
	}
	pids := map[string]int{}
	for _, k := range keys {
		if pids[k[0]] == 0 {
			pids[k[0]] = len(pids) + 1
			emit(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, pids[k[0]], k[0])
		}
	}
	tid := 0
	for i, k := range keys {
		if i == 0 || keys[i-1][0] != k[0] {
			tid = 0
		}
		tid++
		threads[k] = tid
		emit(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%q}}`, pids[k[0]], tid, k[1])
	}
	for _, e := range events {
		args := e.Args
		if args == "" {
			args = "{}"
		}
		pid, tid := pids[e.Process], threads[[2]string{e.Process, e.Thread}]
		if e.Instant == "" {
			emit(`{"ph":"X","name":%q,"cat":%q,"pid":%d,"tid":%d,"ts":%d,"dur":%d,"args":%s}`,
				e.Name, e.Cat, pid, tid, e.TS, e.Dur, args)
		} else {
			emit(`{"ph":"i","name":%q,"cat":%q,"s":%q,"pid":%d,"tid":%d,"ts":%d,"args":%s}`,
				e.Name, e.Cat, e.Instant, pid, tid, e.TS, args)
		}
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}
