package attr

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

func ev(layer trace.Layer, op string, req trace.ReqID, pid causes.PID, start, end int64) trace.Event {
	return trace.Event{
		Layer: layer, Op: op, Req: req, PID: pid,
		Start: sim.Time(start), End: sim.Time(end),
	}
}

// feedRequest runs one synthetic request through a: descendant spans
// first, syscall root last, mirroring the tracer's record-order guarantee.
func feedRequest(a *Attribution, req trace.ReqID, pid causes.PID) {
	a.Consume(ev(trace.LayerCache, trace.OpThrottle, req, pid, 0, 10))
	commit := ev(trace.LayerFS, trace.OpCommitWait, req, pid, 10, 40)
	commit.Causes = causes.Of(pid)
	commit.Txn = 1
	a.Consume(commit)
	a.Consume(ev(trace.LayerBlock, trace.OpQueue, req, pid, 40, 55))
	a.Consume(ev(trace.LayerDevice, trace.OpService, req, pid, 55, 80))
	a.Consume(ev(trace.LayerSyscall, trace.OpFsync, req, pid, 0, 100))
}

func TestCriticalPathDecomposition(t *testing.T) {
	a := New()
	feedRequest(a, 1, 100)
	if a.Requests() != 1 {
		t.Fatalf("Requests = %d, want 1", a.Requests())
	}
	want := map[Category]time.Duration{
		CatTotal:    100,
		CatThrottle: 10,
		CatJournal:  30,
		CatQueue:    15,
		CatDevice:   25,
		CatOther:    20, // 100 - (10+30+15+25)
	}
	for c, w := range want {
		h := a.Aggregate(c)
		if h.Count() != 1 || h.Max() != w {
			t.Errorf("category %s: count=%d max=%v, want one sample of %v", c, h.Count(), h.Max(), w)
		}
	}
	if h := a.Hist(100, trace.OpFsync); h == nil || h.Count() != 1 {
		t.Errorf("per-group histogram missing")
	}
	if a.TotalInversions() != 0 {
		t.Errorf("self-caused commit wait counted as inversion")
	}
}

func TestOtherNeverNegative(t *testing.T) {
	a := New()
	// Overlapping block requests: category sums exceed the root wall time.
	a.Consume(ev(trace.LayerDevice, trace.OpService, 1, 100, 0, 90))
	a.Consume(ev(trace.LayerDevice, trace.OpService, 1, 100, 0, 90))
	a.Consume(ev(trace.LayerSyscall, trace.OpWrite, 1, 100, 0, 100))
	if got := a.Aggregate(CatOther).Max(); got != 0 {
		t.Fatalf("other = %v, want clamp to 0", got)
	}
	if got := a.Aggregate(CatDevice).Max(); got != 180 {
		t.Fatalf("device = %v, want 180", got)
	}
}

func TestKernelRootsIgnored(t *testing.T) {
	a := New()
	a.Consume(ev(trace.LayerSyscall, trace.OpWrite, 1, 2, 0, 100)) // pdflush
	if a.Requests() != 0 {
		t.Fatalf("kernel-task root attributed as a user request")
	}
}

func TestTxnCommitInversionDetection(t *testing.T) {
	a := New()
	commit := ev(trace.LayerFS, trace.OpCommitWait, 1, 100, 0, 50)
	commit.Causes = causes.Of(100, 101, 102, 3) // jbd (3) must be ignored
	commit.Txn = 7
	a.Consume(commit)
	invs := a.Inversions()
	if len(invs) != 2 {
		t.Fatalf("detected %d inversions, want 2 (one per foreign user pid)", len(invs))
	}
	// Culprits emitted in sorted PID order for determinism.
	if invs[0].Culprit != 101 || invs[1].Culprit != 102 {
		t.Fatalf("culprits = %d,%d, want 101,102", invs[0].Culprit, invs[1].Culprit)
	}
	for _, inv := range invs {
		if inv.Kind != KindTxnCommit || inv.Victim != 100 || inv.Layer != trace.LayerFS ||
			inv.Dur != 50 || inv.Txn != 7 || inv.Req != 1 {
			t.Errorf("bad inversion record: %+v", inv)
		}
	}
	if a.InversionCount(KindTxnCommit) != 2 || a.InversionTime(KindTxnCommit) != 100 {
		t.Errorf("counters: n=%d dur=%v, want 2 and 100",
			a.InversionCount(KindTxnCommit), a.InversionTime(KindTxnCommit))
	}
}

func TestOrderedFlushInversionDetection(t *testing.T) {
	a := New()
	// The committing transaction flushed 30ns of pid 101's data first.
	flush := ev(trace.LayerFS, trace.OpFlushData, 0, 3, 0, 30)
	flush.Causes = causes.Of(101)
	flush.Txn = 9
	a.Consume(flush)
	commit := ev(trace.LayerFS, trace.OpCommitWait, 2, 100, 30, 80)
	commit.Causes = causes.Of(100)
	commit.Txn = 9
	a.Consume(commit)
	invs := a.Inversions()
	if len(invs) != 1 {
		t.Fatalf("detected %d inversions, want 1", len(invs))
	}
	inv := invs[0]
	if inv.Kind != KindOrderedFlush || inv.Victim != 100 || inv.Culprit != 101 || inv.Dur != 30 {
		t.Fatalf("bad ordered-flush inversion: %+v", inv)
	}
	// A different transaction's flushes must not leak into this commit.
	a2 := New()
	flush.Txn = 8
	a2.Consume(flush)
	a2.Consume(commit)
	if n := a2.TotalInversions(); n != 0 {
		t.Fatalf("flush of txn 8 blamed on commit of txn 9 (%d inversions)", n)
	}
}

func TestWritebackDelegationDetection(t *testing.T) {
	a := New()
	// pdflush (pid 2) drains pid 101's pages over [0, 100).
	wb := ev(trace.LayerFS, trace.OpFlushData, 0, 2, 0, 100)
	wb.Causes = causes.Of(101)
	a.Consume(wb)
	// pid 100 stalls in the dirty throttle over [50, 90): 40ns overlap.
	a.Consume(ev(trace.LayerCache, trace.OpThrottle, 3, 100, 50, 90))
	invs := a.Inversions()
	if len(invs) != 1 {
		t.Fatalf("detected %d inversions, want 1", len(invs))
	}
	inv := invs[0]
	if inv.Kind != KindWriteback || inv.Victim != 100 || inv.Culprit != 101 ||
		inv.Dur != 40 || inv.Layer != trace.LayerCache {
		t.Fatalf("bad writeback inversion: %+v", inv)
	}
	// A non-overlapping stall detects nothing.
	a.Consume(ev(trace.LayerCache, trace.OpThrottle, 4, 100, 200, 240))
	if n := a.TotalInversions(); n != 1 {
		t.Fatalf("non-overlapping throttle produced an inversion (total %d)", n)
	}
}

// TestGCStallDetection pins the gc-stall victim rules: a user submitter is
// the victim; for a kernel submitter (jbd) it is the first user PID among
// the causes; kernel-only causes and non-sync spans record nothing.
func TestGCStallDetection(t *testing.T) {
	gcWait := func(req trace.ReqID, pid causes.PID, cs causes.Set, flags trace.Flag) trace.Event {
		e := ev(trace.LayerDevice, trace.OpGCWait, req, pid, 10, 30)
		e.Causes, e.Flags = cs, flags
		return e
	}
	a := New()
	a.Consume(gcWait(1, 105, causes.Of(105), trace.FlagSync))
	a.Consume(gcWait(2, 3, causes.Of(50, 120), trace.FlagSync|trace.FlagJournal))
	invs := a.Inversions()
	if len(invs) != 2 {
		t.Fatalf("detected %d inversions, want 2: %+v", len(invs), invs)
	}
	for i, victim := range []causes.PID{105, 120} {
		inv := invs[i]
		if inv.Kind != KindGCStall || inv.Victim != victim || inv.Culprit != gcPID ||
			inv.Layer != trace.LayerDevice || inv.Dur != 20 || inv.At != 10 || inv.Req != trace.ReqID(i+1) {
			t.Errorf("inversion %d = %+v, want gc-stall of victim %d by gc over 20ns", i, inv, victim)
		}
	}

	quiet := New()
	quiet.Consume(gcWait(3, 3, causes.Of(2, 3), trace.FlagSync))
	quiet.Consume(gcWait(4, 105, causes.Of(105), trace.FlagWrite))
	if n := quiet.TotalInversions(); n != 0 {
		t.Fatalf("kernel-only or non-sync gc waits recorded %d inversions, want 0", n)
	}
}

func TestBoundedStateEviction(t *testing.T) {
	a := New()
	for i := 0; i < maxOpenReqs+10; i++ {
		a.Consume(ev(trace.LayerBlock, trace.OpQueue, trace.ReqID(i+1), 100, 0, 5))
	}
	if len(a.reqs) > maxOpenReqs {
		t.Fatalf("open-request state grew to %d, cap is %d", len(a.reqs), maxOpenReqs)
	}
	for i := 0; i < maxTxnsTracked+5; i++ {
		fl := ev(trace.LayerFS, trace.OpFlushData, 0, 3, 0, 10)
		fl.Txn = int64(i + 1)
		fl.Causes = causes.Of(101)
		a.Consume(fl)
	}
	if len(a.txns) > maxTxnsTracked {
		t.Fatalf("txn state grew to %d, cap is %d", len(a.txns), maxTxnsTracked)
	}
}

func TestRegisterMetricsPublishesHistograms(t *testing.T) {
	a := New()
	r := metrics.NewRegistry()
	a.RegisterMetrics(r)
	feedRequest(a, 1, 100)
	for _, c := range Categories() {
		if h := r.Hist("attr." + c.String()); h == nil || h.Count() != 1 {
			t.Errorf("registry histogram attr.%s missing or empty", c)
		}
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "attr.total") {
		t.Errorf("WriteText omits attribution histograms:\n%s", buf.String())
	}
}

func TestSummaryAndReportRoundTrip(t *testing.T) {
	a := New()
	feedRequest(a, 1, 100)
	commit := ev(trace.LayerFS, trace.OpCommitWait, 2, 100, 0, 50)
	commit.Causes = causes.Of(100, 101)
	commit.Txn = 3
	a.Consume(commit)
	rep := &Report{Seed: 1, Scale: 0.5, Workload: "test",
		Schedulers: []SchedReport{a.Summary("cfq")}}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Seed != 1 || back.Scale != 0.5 || len(back.Schedulers) != 1 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	sr := back.Schedulers[0]
	if sr.Scheduler != "cfq" || sr.Requests != 1 || len(sr.Groups) != 1 {
		t.Fatalf("bad scheduler section: %+v", sr)
	}
	var n int64
	for _, kc := range sr.InversionCounts {
		n += kc.Count
	}
	if n != 1 {
		t.Fatalf("round trip lost inversions: %+v", sr.InversionCounts)
	}

	var txt bytes.Buffer
	rep.WriteText(&txt)
	for _, want := range []string{"cfq", "txn-commit=1", "victim=100 culprit=101"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var diff bytes.Buffer
	WriteDiff(&diff, back, back)
	if !strings.Contains(diff.String(), "requests: 1 -> 1 (+0)") {
		t.Errorf("self-diff missing request line:\n%s", diff.String())
	}
}
