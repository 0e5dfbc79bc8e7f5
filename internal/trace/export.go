// Exporter: Chrome trace_event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev). ChromeWriter is a sink that writes the event
// stream as it is recorded, in memory that does not grow with the number of
// events. Its output is deterministic for a deterministic event stream, so
// exported traces can be compared byte-for-byte in regression tests.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"splitio/internal/sim"
)

// monitorPID is the trace process hosting the monitor's counter tracks —
// one past the last layer pid (layers are pids 1..numLayers).
const monitorPID = int(numLayers) + 1

// CounterSample is one point on a Chrome trace_event counter track
// ("ph":"C"): the monitor emits one per registry gauge per sampling tick,
// so queue depths and token balances render as stacked area charts in
// Perfetto alongside the request spans.
type CounterSample struct {
	// Track is the counter-track name ("sched.queued_be", "block.queue_depth").
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
