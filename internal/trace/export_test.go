package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"splitio/internal/sim"
)

// TestWriteChromeFullCounters validates the counter-track export as real
// trace_event JSON: every CounterSample becomes a "ph":"C" event under the
// dedicated monitor process, values survive the float formatting, and the
// monitor process metadata appears only for a monitored writer.
func TestWriteChromeFullCounters(t *testing.T) {
	events := []Event{{
		Layer: LayerSyscall, Op: "fsync", PID: 7, Req: 1,
		Start: 0, End: sim.Time(time.Millisecond),
	}}
	counters := []CounterSample{
		{Track: "cfq/queued_be", At: sim.Time(500 * time.Millisecond), Value: 3},
		{Track: "block/queue_depth", At: sim.Time(time.Second), Value: 1.5},
	}
	var buf bytes.Buffer
	c := NewChromeWriter(&buf, true)
	for _, ev := range events {
		c.Consume(ev)
	}
	if err := c.Close(counters); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid trace_event JSON: %v", err)
	}

	var cEvents []map[string]any
	monitorNamed := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "C" {
			cEvents = append(cEvents, ev)
		}
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok && args["name"] == "6. monitor" {
				monitorNamed = true
				if ev["pid"] != float64(monitorPID) {
					t.Errorf("monitor process named on pid %v, want %d", ev["pid"], monitorPID)
				}
			}
		}
	}
	if !monitorNamed {
		t.Error("no monitor process_name metadata emitted")
	}
	if len(cEvents) != len(counters) {
		t.Fatalf("got %d counter events, want %d", len(cEvents), len(counters))
	}
	for i, ev := range cEvents {
		if ev["name"] != counters[i].Track {
			t.Errorf("counter %d track %v, want %q", i, ev["name"], counters[i].Track)
		}
		if ev["pid"] != float64(monitorPID) {
			t.Errorf("counter %d on pid %v, want %d", i, ev["pid"], monitorPID)
		}
		args, ok := ev["args"].(map[string]any)
		if !ok {
			t.Fatalf("counter %d has no args: %v", i, ev)
		}
		if args["value"] != counters[i].Value {
			t.Errorf("counter %d value %v, want %g", i, args["value"], counters[i].Value)
		}
	}
	// Virtual nanoseconds export as microseconds: 500ms -> 500000 us.
	if ts := cEvents[0]["ts"]; ts != float64(500000) {
		t.Errorf("counter ts %v, want 500000", ts)
	}

	// Without a monitor (the plain WriteChrome path) the monitor process
	// must not appear at all.
	buf.Reset()
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("monitor")) {
		t.Error("counter-free export mentions the monitor process")
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w := f.n
		f.n = 0
		return w, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

// TestChromeWriterReportsFirstWriteError: a write that fails mid-run (the
// buffered writer flushes once its buffer fills) surfaces from Close.
func TestChromeWriterReportsFirstWriteError(t *testing.T) {
	c := NewChromeWriter(&failWriter{n: 100}, false)
	for i := 0; i < 2000; i++ {
		c.Consume(Event{Layer: LayerBlock, Op: OpQueue, Req: ReqID(i + 1), Start: sim.Time(i), End: sim.Time(i + 1)})
	}
	if err := c.Close(nil); err == nil || err.Error() != "disk full" {
		t.Fatalf("Close = %v, want the first write error", err)
	}
	if c.Count() != 2000 {
		t.Fatalf("Count = %d, want 2000", c.Count())
	}
}
