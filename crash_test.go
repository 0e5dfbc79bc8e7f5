// Integration tests for the fault plane and crash checker: a faulted run is
// deterministic down to its persistence log and trace bytes, legal faults
// (power cut, torn writes) never produce violations, and device lies (lost
// writes) are detected.
package splitio_test

import (
	"bytes"
	"testing"
	"time"

	"splitio/internal/core"
	"splitio/internal/crash"
	"splitio/internal/fault"
	"splitio/internal/sched/cfq"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/trace"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// faultedRun builds a cfq machine with the given fault plan and tracing on,
// runs an fsync-heavy workload for one virtual second, and returns the
// kernel and the collected trace.
func faultedRun(t *testing.T, fsKind core.FSKind, plan *fault.Plan) (*core.Kernel, *schedtest.Collector) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.FS = fsKind
	opts.Fault = plan
	k := core.NewKernel(opts, cfq.Factory)
	t.Cleanup(func() { k.Env.Close() })
	col := schedtest.EnableTrace(k)

	fa := k.FS.MkFileContiguous("/a", 64<<20)
	fb := k.FS.MkFileContiguous("/b", 128<<20)
	k.Spawn("appender", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.FsyncAppender(k, p, pr, fa, 16<<10)
	})
	k.Spawn("rand-fsync", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.RandWriteFsync(k, p, pr, fb, 4096, 128<<20, 128)
	})
	k.Run(time.Second)
	return k, col
}

func legalPlan(seed int64) *fault.Plan {
	p := fault.NewPlan(seed)
	p.TornProb = 0.15
	p.CutTime = 500 * time.Millisecond
	return p
}

func TestCrashSweepNoViolations(t *testing.T) {
	for _, fsKind := range []core.FSKind{core.Ext4, core.COW} {
		k, _ := faultedRun(t, fsKind, legalPlan(1))
		if len(k.Fault.Log().Records) == 0 {
			t.Fatalf("%s: faulted run recorded no media writes", fsKind)
		}
		ck := crash.NewChecker(k.Fault.Log(), crash.ConfigFor(k.FS))
		vs := ck.Sweep(16, 8, 1)
		for _, v := range vs {
			t.Errorf("%s: %s", fsKind, v)
		}
		if ck.ImagesChecked == 0 || ck.Replays == 0 {
			t.Errorf("%s: sweep checked nothing (images=%d replays=%d)",
				fsKind, ck.ImagesChecked, ck.Replays)
		}
	}
}

func TestCheckerCatchesLostWrites(t *testing.T) {
	plan := legalPlan(1)
	plan.LostProb = 0.2
	k, _ := faultedRun(t, core.Ext4, plan)
	if k.Fault.Injected(fault.KindLostWrite) == 0 {
		t.Fatal("plan with LostProb=0.2 lost no writes")
	}
	ck := crash.NewChecker(k.Fault.Log(), crash.ConfigFor(k.FS))
	if vs := ck.Sweep(16, 8, 1); len(vs) == 0 {
		t.Error("silently lost writes produced no violations: the checker is blind")
	}
}

func TestFaultedGoldenDeterminism(t *testing.T) {
	run := func(seed int64) (logBytes, traceBytes []byte) {
		k, col := faultedRun(t, core.Ext4, legalPlan(seed))
		ck := crash.NewChecker(k.Fault.Log(), crash.ConfigFor(k.FS))
		ck.Tracer = k.Trace
		ck.Sweep(16, 8, seed)
		var lb bytes.Buffer
		if err := k.Fault.Log().WriteText(&lb); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		var tb bytes.Buffer
		if err := trace.WriteChrome(&tb, col.Events); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		// The checker's post-hoc spans must be in the trace.
		var images, recovers int
		for _, e := range col.Events {
			switch e.Op {
			case trace.OpCrashImage:
				images++
			case trace.OpRecover:
				recovers++
			}
		}
		if images == 0 || recovers == 0 {
			t.Fatalf("sweep traced %d crash-image and %d recover spans", images, recovers)
		}
		return lb.Bytes(), tb.Bytes()
	}
	log1, tr1 := run(1)
	log2, tr2 := run(1)
	if !bytes.Equal(log1, log2) {
		t.Error("same-seed faulted runs produced different persistence logs")
	}
	if !bytes.Equal(tr1, tr2) {
		t.Error("same-seed faulted runs exported different traces")
	}
	log3, _ := run(2)
	if bytes.Equal(log1, log3) {
		t.Error("different seeds produced identical persistence logs (suspicious)")
	}
}
