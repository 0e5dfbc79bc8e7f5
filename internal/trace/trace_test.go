package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"splitio/internal/causes"
	"splitio/internal/sim"
)

func span(layer Layer, op string, req ReqID, start, end int64) Event {
	return Event{Layer: layer, Op: op, Req: req, PID: 100, Start: sim.Time(start), End: sim.Time(end)}
}

// collectSink keeps every event it is handed.
type collectSink struct {
	evs []Event
}

func (c *collectSink) Consume(ev Event) { c.evs = append(c.evs, ev) }

// collected returns a tracer with a collectSink attached, enabled.
func collected() (*Tracer, *collectSink) {
	tr, s := New(), &collectSink{}
	tr.Attach(s)
	tr.Enable()
	return tr, s
}

func TestDisabledRecordsNothing(t *testing.T) {
	tr := New()
	if tr.Enabled() {
		t.Fatal("fresh tracer is enabled")
	}
	if id := tr.NextReq(); id != 0 {
		t.Fatalf("disabled NextReq = %d, want 0", id)
	}
	s := &collectSink{}
	tr.Attach(s)
	tr.Record(span(LayerSyscall, OpRead, 1, 0, 10))
	if len(s.evs) != 0 {
		t.Fatalf("disabled Record fed %d events to a sink", len(s.evs))
	}
	tr.Enable()
	if id := tr.NextReq(); id != 1 {
		t.Fatalf("first enabled NextReq = %d, want 1 (disabled calls must not consume IDs)", id)
	}
}

func TestDisabledHotPathDoesNotAllocate(t *testing.T) {
	tr := New()
	ev := span(LayerBlock, OpQueue, 0, 5, 9)
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("tracer enabled")
		}
		_ = tr.NextReq()
		tr.Record(ev)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %.1f objects per op, want 0", allocs)
	}
}

func TestNopEnablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Enable on Nop did not panic")
		}
	}()
	Nop.Enable()
}

// TestRecordAndByReq: every recorded event reaches the sinks in emission
// order, ByReq regroups them per request, and a detached sink sees no more.
func TestRecordAndByReq(t *testing.T) {
	tr, s := collected()
	r1, r2 := tr.NextReq(), tr.NextReq()
	tr.Record(span(LayerSyscall, OpWrite, r1, 0, 100))
	tr.Record(span(LayerCache, OpDirty, r1, 10, 10))
	tr.Record(span(LayerSyscall, OpFsync, r2, 50, 300))
	tr.Record(span(LayerDevice, OpService, r2, 100, 250))
	tr.Record(span(LayerBlock, OpQueue, 0, 0, 1)) // untracked

	byReq := ByReq(s.evs)
	if len(byReq) != 2 {
		t.Fatalf("ByReq groups = %d, want 2 (req 0 dropped)", len(byReq))
	}
	if len(byReq[r1]) != 2 || len(byReq[r2]) != 2 {
		t.Fatalf("group sizes = %d/%d, want 2/2", len(byReq[r1]), len(byReq[r2]))
	}
	if !byReq[r1][1].Instant() {
		t.Error("dirty event should be an instant")
	}

	if len(s.evs) != 5 || s.evs[4].Layer != LayerBlock {
		t.Fatalf("sink saw %d events, want all 5 in emission order", len(s.evs))
	}

	tr.Detach(s)
	tr.Record(span(LayerBlock, OpQueue, 99, 20, 21))
	if len(s.evs) != 5 {
		t.Fatalf("detached sink still consumed events (saw %d)", len(s.evs))
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr, s := collected()
	r := tr.NextReq()
	tr.Record(Event{
		Layer: LayerSyscall, Op: OpFsync, Req: r, PID: 100,
		Causes: causes.Of(100), Start: 0, End: 12_345_678,
		Ino: 7, Flags: FlagSync | FlagWrite,
	})
	tr.Record(Event{
		Layer: LayerCache, Op: OpDirty, Req: r, PID: 100,
		Start: 1000, End: 1000, Ino: 7, Page: 3,
	})
	tr.Record(Event{
		Layer: LayerDevice, Op: OpService, Label: "hdd", Req: r, PID: 3,
		Start: 2000, End: 9000, LBA: 42, Blocks: 8, Flags: FlagWrite | FlagJournal | FlagBarrier,
	})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, s.evs); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata records per layer + 3 events.
	want := 2*len(Layers()) + 3
	if len(doc.TraceEvents) != want {
		t.Fatalf("traceEvents = %d records, want %d", len(doc.TraceEvents), want)
	}
	var phases []string
	for _, rec := range doc.TraceEvents {
		phases = append(phases, rec["ph"].(string))
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "X") || !strings.Contains(joined, "i") {
		t.Fatalf("expected both complete and instant events, got phases %v", phases)
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	mk := func() []Event {
		tr, s := collected()
		r := tr.NextReq()
		tr.Record(span(LayerSyscall, OpRead, r, 0, 500))
		tr.Record(span(LayerBlock, OpQueue, r, 10, 40))
		tr.Record(span(LayerDevice, OpService, r, 40, 480))
		return s.evs
	}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteChrome output differs across identical event streams")
	}
}

func TestTextExporters(t *testing.T) {
	tr := New()
	roll := NewRollup(10)
	tr.Attach(roll)
	tr.Enable()
	r := tr.NextReq()
	tr.Record(span(LayerFS, OpTxnCommit, r, 100, 900_000))
	tr.Record(span(LayerDevice, OpService, r, 200_000, 800_000))
	tr.Record(span(LayerSyscall, OpFsync, r, 0, 1_000_000))

	var reqs, sum bytes.Buffer
	roll.WriteRequests(&reqs)
	roll.WriteSummary(&sum)
	if !strings.Contains(reqs.String(), "syscall/fsync") {
		t.Errorf("request table missing root op:\n%s", reqs.String())
	}
	if !strings.Contains(sum.String(), "fsync") || !strings.Contains(sum.String(), "100") {
		t.Errorf("summary missing fsync group for pid 100:\n%s", sum.String())
	}
}

func TestLayerAndFlagStrings(t *testing.T) {
	if got := LayerFS.String(); got != "fs" {
		t.Errorf("LayerFS = %q", got)
	}
	if got := Layer(99).String(); got != "unknown" {
		t.Errorf("Layer(99) = %q", got)
	}
	f := FlagSync | FlagBarrier
	if s := f.String(); s != "sync|barrier" {
		t.Errorf("flags = %q, want sync|barrier", s)
	}
	if !f.Has(FlagSync) || f.Has(FlagJournal) {
		t.Error("Flag.Has mismatch")
	}
	if s := Flag(0).String(); s != "-" {
		t.Errorf("zero flags = %q, want -", s)
	}
}

func TestAttachNopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach on Nop did not panic")
		}
	}()
	Nop.Attach(&collectSink{})
}

// TestRollupFinishesAtSyscallSpan: requests finish out of ID order at their
// syscall span, the table keeps the lowest IDs and counts the rest, and a
// request with no syscall span rolls up under its first span at the end.
func TestRollupFinishesAtSyscallSpan(t *testing.T) {
	const us = 1000
	roll := NewRollup(2)
	for _, ev := range []Event{
		span(LayerFS, OpTxnCommit, 3, 0, 10*us),
		span(LayerBlock, OpQueue, 1, 5*us, 8*us), // no syscall span follows
		span(LayerSyscall, OpWrite, 3, 0, 20*us),
		span(LayerSyscall, OpRead, 2, 0, 5*us),
		span(LayerSyscall, OpRead, 4, 0, 7*us),
		span(LayerBlock, OpQueue, 0, 0, 1), // untracked
	} {
		roll.Consume(ev)
	}
	var reqs, sum bytes.Buffer
	roll.WriteRequests(&reqs)
	roll.WriteSummary(&sum)
	rows := strings.Split(strings.TrimSuffix(reqs.String(), "\n"), "\n")
	if len(rows) != 4 {
		t.Fatalf("request table has %d lines, want header, 2 rows and a note:\n%s", len(rows), reqs.String())
	}
	if f := strings.Fields(rows[1]); f[0] != "1" || f[2] != "block/queue" || f[3] != "3.0µs" || f[6] != "3.0µs" {
		t.Errorf("row 1 = %q, want request 1 rolled up under its block span", rows[1])
	}
	if f := strings.Fields(rows[2]); f[0] != "2" || f[2] != "syscall/read" {
		t.Errorf("row 2 = %q, want request 2's read", rows[2])
	}
	if rows[3] != "  ... 2 more requests (raise the cap or use the summary)" {
		t.Errorf("note = %q, want 2 more requests", rows[3])
	}
	wantSum := []string{
		"  100  read            2         6.0µs         7.0µs             -             -             -             -",
		"  100  write           1        20.0µs        20.0µs             -        10.0µs             -             -",
	}
	lines := strings.Split(strings.TrimSuffix(sum.String(), "\n"), "\n")
	if len(lines) != 3 || lines[1] != wantSum[0] || lines[2] != wantSum[1] {
		t.Errorf("summary:\n%s\nwant rows:\n%s", sum.String(), strings.Join(wantSum, "\n"))
	}
}
