package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vscsistats/internal/core"
	"vscsistats/internal/histogram"
)

// Source is the one seam between a component and GET /metrics: the
// component writes its own series, reading its own Stats structs, into
// the scrape's Writer. Attach sources with Exporter.With; they are
// written in attachment order after the per-disk series.
type Source interface {
	WriteMetrics(w *Writer)
}

// Writer renders the Prometheus text exposition format (version 0.0.4),
// capturing the first write error so callers emit unconditionally.
type Writer struct {
	w   *bufio.Writer
	err error
}

func newWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	_, w.err = fmt.Fprintf(w.w, format, args...)
}

func (w *Writer) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Family emits the HELP and TYPE header of one metric family. It must
// precede the family's samples, and each family is declared once.
func (w *Writer) Family(name, typ, help string) {
	help = strings.ReplaceAll(help, `\`, `\\`)
	w.printf("# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", `\n`))
	w.printf("# TYPE %s %s\n", name, typ)
}

// Sample emits one sample line; labels is a rendered list from Labels
// ("" for an unlabelled sample). Integral values print as integers.
func (w *Writer) Sample(name, labels string, v float64) {
	w.sample(name, labels, formatValue(v))
}

func (w *Writer) sample(name, labels, value string) {
	if labels == "" {
		w.printf("%s %s\n", name, value)
		return
	}
	w.printf("%s{%s} %s\n", name, labels, value)
}

// Histogram emits the cumulative bucket/sum/count triple of one snapshot,
// the snapshot's bin edges reused verbatim as `le` bounds. The +Inf
// bucket and _count are the running bucket sum rather than h.Total, so
// the series is internally consistent (bucket <= bucket, +Inf == count)
// whatever the snapshot source.
func (w *Writer) Histogram(name, labels string, h *histogram.Snapshot) {
	var cum int64
	for i, edge := range h.Edges {
		cum += h.Counts[i]
		w.sample(name+"_bucket", joinLabels(labels, `le="`+strconv.FormatInt(edge, 10)+`"`), strconv.FormatInt(cum, 10))
	}
	cum += h.Counts[len(h.Edges)]
	w.sample(name+"_bucket", joinLabels(labels, `le="+Inf"`), strconv.FormatInt(cum, 10))
	w.sample(name+"_sum", labels, strconv.FormatInt(h.Sum, 10))
	w.sample(name+"_count", labels, strconv.FormatInt(cum, 10))
}

// Series is one row of a metric table: a family and how to read its value
// off a T (a Stats struct, a per-shard status, a scrape row). Build rows
// with Counter and Gauge.
type Series[T any] struct {
	name, typ, help string
	value           func(T) float64
}

// Number is any field type a Stats struct counts in.
type Number interface {
	~int | ~int64 | ~uint64 | ~float64
}

// Counter is the table row of a monotonically increasing family.
func Counter[T any, N Number](name, help string, value func(T) N) Series[T] {
	return Series[T]{name, "counter", help, func(t T) float64 { return float64(value(t)) }}
}

// Gauge is the table row of a family that can go down.
func Gauge[T any, N Number](name, help string, value func(T) N) Series[T] {
	return Series[T]{name, "gauge", help, func(t T) float64 { return float64(value(t)) }}
}

// Table emits each series as one family with one sample per row, labelled
// by labels(row) (nil for unlabelled samples). With no rows the families
// are still declared.
func Table[T any](w *Writer, rows []T, labels func(T) string, series []Series[T]) {
	for _, s := range series {
		w.Family(s.name, s.typ, s.help)
		for _, row := range rows {
			var l string
			if labels != nil {
				l = labels(row)
			}
			w.Sample(s.name, l, s.value(row))
		}
	}
}

// workloadFamilies maps the paper's metric families to their name suffix
// and help text.
var workloadFamilies = []struct {
	metric core.Metric
	suffix string
	help   string
	// windowedOnly marks the one family with no read/write breakdown.
	windowedOnly bool
}{
	{core.MetricIOLength, "_io_length_bytes", "I/O length histogram (paper Figures 2-5 (a)/(b)).", false},
	{core.MetricSeekDistance, "_seek_distance_sectors", "Signed seek distance between consecutive commands, in 512-byte sectors.", false},
	{core.MetricSeekWindowed, "_seek_distance_windowed_sectors", "Minimum-magnitude seek distance to any of the last N=16 commands.", true},
	{core.MetricOutstanding, "_outstanding_ios", "Outstanding I/Os observed at command arrival.", false},
	{core.MetricLatency, "_io_latency_microseconds", "Device latency from issue to completion, in microseconds.", false},
	{core.MetricInterarrival, "_io_interarrival_microseconds", "Inter-arrival time between consecutive commands, in microseconds.", false},
}

// WorkloadHistograms emits the six paper histograms of every snapshot as
// the families prefix+"_io_length_bytes" … prefix+"_io_interarrival_
// microseconds" (help text prefixed with helpPrefix), one series per
// class="all|reads|writes" under labels(snapshot) (nil for none).
func (w *Writer) WorkloadHistograms(prefix, helpPrefix string, snaps []*core.Snapshot, labels func(*core.Snapshot) string) {
	for _, fam := range workloadFamilies {
		name := prefix + fam.suffix
		w.Family(name, "histogram", helpPrefix+fam.help)
		classes := []core.Class{core.All, core.Reads, core.Writes}
		if fam.windowedOnly {
			classes = classes[:1]
		}
		for _, s := range snaps {
			var base string
			if labels != nil {
				base = labels(s)
			}
			for _, cl := range classes {
				if h := s.Histogram(fam.metric, cl); h != nil {
					w.Histogram(name, joinLabels(base, Labels("class", cl.String())), h)
				}
			}
		}
	}
}

// Labels renders name/value pairs as an exposition label list
// (`k1="v1",k2="v2"`), escaping backslash, double quote and newline in
// the values.
func Labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// formatValue renders integral values exactly as integers (counters stay
// greppable and diffable) and everything else in the shortest form that
// round-trips.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<63 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
