// Integration tests for cross-layer latency attribution: under a
// block-level scheduler (CFQ) the entangled antagonist workload produces
// journal-commit priority inversions that the attribution sink detects and
// blames on the right culprit, while split-AFQ runs the same workload with
// zero inversions (the paper's Fig 4 pathology vs its split-level fix).
package splitio_test

import (
	"testing"
	"time"

	"splitio"
	"splitio/internal/attr"
	"splitio/internal/causes"
	"splitio/internal/schedtest"
	"splitio/internal/trace"
)

// attributedRun runs the entangled pair — a best-effort fsync appender and
// an idle-class paced bulk writer — under sched with an attribution sink
// on the kernel's tracer, and returns the attribution plus the appender's
// PID.
func attributedRun(t *testing.T, sched string) (*attr.Attribution, causes.PID) {
	t.Helper()
	m := splitio.New(
		splitio.WithScheduler(sched),
		splitio.WithSeed(7),
		splitio.WithRAMMB(64),
	)
	t.Cleanup(m.Close)
	k := m.Kernel()
	a := attr.New()
	k.Trace.Attach(a)
	k.Trace.Enable()

	logf := m.CreateContiguousFile("/log", 64<<20)
	bulk := m.CreateContiguousFile("/bulk", 1<<30)
	appender := m.Spawn("appender", splitio.ProcOpts{}, func(tk *splitio.Task) {
		off := int64(0)
		for {
			tk.Write(logf, off%(64<<20), 4096)
			tk.Fsync(logf)
			off += 4096
		}
	})
	m.Spawn("bulk", splitio.ProcOpts{Idle: true}, func(tk *splitio.Task) {
		for {
			for i := 0; i < 64; i++ {
				off := tk.Rand63n(1<<30/4096) * 4096
				tk.Write(bulk, off, 64<<10)
			}
			tk.Sleep(500 * time.Millisecond)
		}
	})
	m.Run(4 * time.Second)
	return a, causes.PID(appender.PID())
}

// TestCFQFlagsJournalEntanglement: under CFQ the idle writer's dirty data
// joins the appender's transactions, so fsyncs wait on commits carrying
// foreign causes — detected as txn-commit inversions naming the appender
// as victim and the bulk writer as culprit, at the fs layer.
func TestCFQFlagsJournalEntanglement(t *testing.T) {
	a, victim := attributedRun(t, "cfq")
	if a.Requests() == 0 {
		t.Fatal("no requests attributed")
	}
	if n := a.InversionCount(attr.KindTxnCommit); n == 0 {
		t.Fatalf("CFQ run detected no txn-commit inversions; want > 0 (requests=%d)", a.Requests())
	}
	for _, inv := range a.Inversions() {
		if inv.Kind != attr.KindTxnCommit {
			continue
		}
		if inv.Victim != victim {
			t.Errorf("inversion victim = %d, want appender %d", inv.Victim, victim)
		}
		if inv.Culprit == victim {
			t.Errorf("inversion blames the victim itself (pid %d)", victim)
		}
		if inv.Layer != trace.LayerFS {
			t.Errorf("txn-commit inversion at layer %s, want fs", inv.Layer)
		}
		if inv.Dur <= 0 || inv.Txn == 0 || inv.Req == 0 {
			t.Errorf("inversion missing detail: dur=%v txn=%d req=%d", inv.Dur, inv.Txn, inv.Req)
		}
	}
	// The commit entanglement must show up in the blame decomposition too:
	// the appender's fsyncs spend measurable time in the journal category.
	if j := a.Aggregate(attr.CatJournal); j.Count() == 0 || j.Max() == 0 {
		t.Errorf("no journal time attributed (count=%d max=%v)", j.Count(), j.Max())
	}
}

// TestAFQRunsInversionFree: split-AFQ resolves the same workload at the
// memory level (the idle writer is never admitted while the best-effort
// appender is active), so the detector reports zero inversions of any
// kind — and the appender's fsync tail stays within a sane budget.
func TestAFQRunsInversionFree(t *testing.T) {
	a, victim := attributedRun(t, "afq")
	if a.Requests() == 0 {
		t.Fatal("no requests attributed")
	}
	schedtest.AssertNoInversion(t, a)
	schedtest.AssertLatencyBudget(t, "afq appender fsync",
		a.Hist(victim, trace.OpFsync),
		[]float64{50, 99}, []time.Duration{time.Second, 2 * time.Second})
}
