// Exporters: Chrome trace_event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev) and plain-text latency breakdown tables. Both
// are sinks that consume the event stream as it is recorded, in memory that
// does not grow with the number of events. All output is deterministic for
// a deterministic event stream — iteration over maps is always sorted — so
// exported traces can be compared byte-for-byte in regression tests.

package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"splitio/internal/causes"
	"splitio/internal/sim"
)

// monitorPID is the trace process hosting the monitor's counter tracks —
// one past the last layer pid (layers are pids 1..numLayers).
const monitorPID = int(numLayers) + 1

// CounterSample is one point on a Chrome trace_event counter track
// ("ph":"C"): the monitor emits one per introspection counter per sampling
// tick, so queue depths and token balances render as stacked area charts in
// Perfetto alongside the request spans.
type CounterSample struct {
	// Track is the counter-track name ("cfq/queued_be", "block/queue_depth").
	Track string `json:"track"`
	// At is the virtual sampling time.
	At sim.Time `json:"at"`
	// Value is the sampled value.
	Value float64 `json:"value"`
}

// ChromeWriter is a Sink that streams events as Chrome trace_event JSON
// ("JSON object format"). Layers become trace processes (so each layer is
// one named track group) and simulated PIDs become threads within them.
// Spans are "X" (complete) events; instants are "i" events. Virtual
// nanoseconds map to trace microseconds with three decimals, preserving
// full precision.
type ChromeWriter struct {
	w   *bufio.Writer
	sep string // written before the next record
	rec []byte // the record being formatted, reused
	n   int    // events written
}

// NewChromeWriter writes the trace header and each layer's process
// metadata to w. With monitor set it also names the "monitor" process that
// Close's counter tracks live under.
func NewChromeWriter(w io.Writer, monitor bool) *ChromeWriter {
	c := &ChromeWriter{w: bufio.NewWriterSize(w, 64<<10), sep: "\n"}
	c.w.WriteString(`{"traceEvents":[`)
	for _, l := range Layers() {
		c.process(int(l)+1, fmt.Sprintf("%d. %s", int(l)+1, l))
	}
	if monitor {
		c.process(monitorPID, fmt.Sprintf("%d. monitor", monitorPID))
	}
	return c
}

// process names trace process pid and sorts it in pid order.
func (c *ChromeWriter) process(pid int, name string) {
	c.emit(fmt.Appendf(c.rec[:0], `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, pid, name))
	c.emit(fmt.Appendf(c.rec[:0], `{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`, pid, pid-1))
}

func (c *ChromeWriter) emit(rec []byte) {
	c.w.WriteString(c.sep)
	c.sep = ",\n"
	c.w.Write(rec)
	c.rec = rec
}

// Consume implements Sink: it writes ev as one trace_event record.
func (c *ChromeWriter) Consume(ev Event) {
	c.n++
	b := strconv.AppendQuote(append(c.rec[:0], `{"name":`...), ev.Op)
	b = strconv.AppendQuote(append(b, `,"cat":`...), ev.Layer.String())
	if ev.Instant() {
		b = append(b, `,"ph":"i"`...)
	} else {
		b = append(b, `,"ph":"X"`...)
	}
	b = appendInt(appendInt(b, "pid", int64(ev.Layer)+1), "tid", int64(ev.PID))
	b = appendUsec(append(b, `,"ts":`...), time.Duration(ev.Start))
	if ev.Instant() {
		b = append(b, `,"s":"t"`...)
	} else {
		b = appendUsec(append(b, `,"dur":`...), ev.Dur())
	}
	b = strconv.AppendUint(append(b, `,"args":{"req":`...), uint64(ev.Req), 10)
	b = appendNonZero(appendNonZero(b, "ino", ev.Ino), "page", ev.Page)
	if ev.Blocks != 0 {
		b = appendInt(appendInt(b, "lba", ev.LBA), "blocks", int64(ev.Blocks))
	}
	b = appendNonZero(appendNonZero(b, "bytes", ev.Bytes), "prio", int64(ev.Prio))
	b = appendNonZero(appendNonZero(b, "depth", ev.Depth), "txn", ev.Txn)
	if !ev.Causes.Empty() {
		b = strconv.AppendQuote(appendKey(b, "causes"), ev.Causes.String())
	}
	if ev.Flags != 0 {
		b = strconv.AppendQuote(appendKey(b, "flags"), ev.Flags.String())
	}
	if ev.Label != "" {
		b = strconv.AppendQuote(appendKey(b, "label"), ev.Label)
	}
	c.emit(append(b, "}}"...))
}

// Count returns the number of events written.
func (c *ChromeWriter) Count() int { return c.n }

// Close appends each counter sample as a "C" event under the monitor
// process, one counter track per Track name, then the footer, and flushes.
// It returns the first write error of the whole export.
func (c *ChromeWriter) Close(counters []CounterSample) error {
	for _, s := range counters {
		b := strconv.AppendQuote(append(c.rec[:0], `{"name":`...), s.Track)
		b = appendInt(append(b, `,"ph":"C"`...), "pid", int64(monitorPID))
		b = appendUsec(append(b, `,"tid":0,"ts":`...), time.Duration(s.At))
		b = strconv.AppendFloat(append(b, `,"args":{"value":`...), s.Value, 'g', -1, 64)
		c.emit(append(b, "}}"...))
	}
	c.w.WriteString("\n]}\n")
	return c.w.Flush()
}

// WriteChrome writes a collected event slice through a ChromeWriter, with
// no monitor process.
func WriteChrome(w io.Writer, events []Event) error {
	c := NewChromeWriter(w, false)
	for _, ev := range events {
		c.Consume(ev)
	}
	return c.Close(nil)
}

func appendKey(b []byte, key string) []byte {
	return append(append(append(b, ',', '"'), key...), '"', ':')
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(appendKey(b, key), v, 10)
}

func appendNonZero(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, v)
}

// appendUsec renders d (never negative: virtual time starts at zero and a
// span ends no earlier than it starts) as microseconds with nanosecond
// precision, the unit trace_event expects.
func appendUsec(b []byte, d time.Duration) []byte {
	ns := d % time.Microsecond
	return append(strconv.AppendInt(b, int64(d/time.Microsecond), 10), '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// reqRollup is one request's latency decomposition: its root span plus the
// summed time its spans spent in each lower layer.
type reqRollup struct {
	req      ReqID
	pid      causes.PID
	layer    Layer
	op       string
	dur      time.Duration
	perLayer [numLayers]time.Duration
}

// groupKey and groupAgg are one (pid, op) row of the summary.
type groupKey struct {
	pid int
	op  string
}

type groupAgg struct {
	n        int
	total    time.Duration
	max      time.Duration
	perLayer [numLayers]time.Duration
}

// Rollup is a Sink that keeps the per-request state behind the latency
// tables. A request's root is its syscall span; requests with no syscall
// span (background writeback rounds, journal commits) roll up under their
// first span instead.
//
// A request is finished when its syscall span arrives: the VFS records a
// syscall's span after all its synchronous descendants, so the request is
// folded into the tables there and its state dropped. (A span arriving
// later would be rolled up as a second request with the same ID; no
// experiment emits one.) Requests without a syscall span stay open until a table is
// written. Memory is the open requests, the kept rows and the summary
// groups.
type Rollup struct {
	rows   int
	open   map[ReqID]reqRollup
	lowest []reqRollup // the finished requests with the lowest IDs, sorted
	more   int         // finished requests beyond lowest
	groups map[groupKey]groupAgg
}

// NewRollup returns a rollup whose request table keeps the rows requests
// with the lowest IDs.
func NewRollup(rows int) *Rollup {
	return &Rollup{rows: rows, open: make(map[ReqID]reqRollup), groups: make(map[groupKey]groupAgg)}
}

// Consume implements Sink.
func (r *Rollup) Consume(ev Event) {
	if ev.Req == 0 {
		return
	}
	x, ok := r.open[ev.Req]
	if !ok || ev.Layer == LayerSyscall {
		x.req, x.pid, x.layer, x.op, x.dur = ev.Req, ev.PID, ev.Layer, ev.Op, ev.Dur()
	}
	if ev.Layer == LayerSyscall {
		delete(r.open, ev.Req)
		r.finish(x)
		return
	}
	if !ev.Instant() {
		x.perLayer[ev.Layer] += ev.Dur()
	}
	r.open[ev.Req] = x
}

func (r *Rollup) finish(x reqRollup) {
	r.keep(x)
	if x.layer != LayerSyscall {
		return
	}
	k := groupKey{int(x.pid), x.op}
	a := r.groups[k]
	a.n++
	a.total += x.dur
	if x.dur > a.max {
		a.max = x.dur
	}
	for l, v := range x.perLayer {
		a.perLayer[l] += v
	}
	r.groups[k] = a
}

// keep inserts x among the lowest-ID rows and counts the request that
// falls off the end, if any.
func (r *Rollup) keep(x reqRollup) {
	i := sort.Search(len(r.lowest), func(i int) bool { return r.lowest[i].req > x.req })
	if len(r.lowest) == r.rows {
		r.more++
		if i == r.rows {
			return
		}
		r.lowest = r.lowest[:r.rows-1]
	}
	r.lowest = slices.Insert(r.lowest, i, x)
}

// finishOpen finishes the requests that never saw a syscall span.
func (r *Rollup) finishOpen() {
	ids := make([]ReqID, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r.finish(r.open[id])
	}
	clear(r.open)
}

// WriteRequests writes a per-request latency breakdown table: one row per
// kept request, in request order, with the request's total latency and the
// time its spans spent in each lower layer. A note counts the requests
// beyond the kept rows.
func (r *Rollup) WriteRequests(w io.Writer) {
	r.finishOpen()
	fmt.Fprintf(w, "%6s  %5s  %-13s  %12s  %12s  %12s  %12s  %12s\n",
		"req", "pid", "op", "total", "cache", "fs", "block", "device")
	for _, x := range r.lowest {
		fmt.Fprintf(w, "%6d  %5d  %-13s  %12s  %12s  %12s  %12s  %12s\n",
			x.req, int(x.pid), x.layer.String()+"/"+x.op,
			fmtDur(x.dur), fmtDur(x.perLayer[LayerCache]), fmtDur(x.perLayer[LayerFS]),
			fmtDur(x.perLayer[LayerBlock]), fmtDur(x.perLayer[LayerDevice]))
	}
	if r.more > 0 {
		fmt.Fprintf(w, "  ... %d more requests (raise the cap or use the summary)\n", r.more)
	}
}

// WriteSummary writes an aggregated latency breakdown: for each (pid, op)
// syscall group, the request count, mean and max total latency, and the mean
// time spent per lower layer. This is the "where did the time go" table for
// a whole run.
func (r *Rollup) WriteSummary(w io.Writer) {
	r.finishOpen()
	keys := make([]groupKey, 0, len(r.groups))
	for k := range r.groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b groupKey) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), strings.Compare(a.op, b.op))
	})
	fmt.Fprintf(w, "%5s  %-8s  %7s  %12s  %12s  %12s  %12s  %12s  %12s\n",
		"pid", "op", "count", "mean", "max", "cache", "fs", "block", "device")
	for _, k := range keys {
		a := r.groups[k]
		n := time.Duration(a.n)
		fmt.Fprintf(w, "%5d  %-8s  %7d  %12s  %12s  %12s  %12s  %12s  %12s\n",
			k.pid, k.op, a.n, fmtDur(a.total/n), fmtDur(a.max),
			fmtDur(a.perLayer[LayerCache]/n), fmtDur(a.perLayer[LayerFS]/n),
			fmtDur(a.perLayer[LayerBlock]/n), fmtDur(a.perLayer[LayerDevice]/n))
	}
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
