// Inversion experiment: the latency-attribution counterpart of Figs 4 and
// 9. A best-effort fsync appender shares a machine with an idle-class bulk
// writer; under a block-level scheduler (CFQ) the writer's dirty data
// entangles with the appender's journal commits (shared transactions and
// ordered-mode flushes), which the attribution sink detects as priority
// inversions. Under a split scheduler (AFQ) the writer is held at the
// memory level, so the same workload shows zero inversions — the paper's
// cause-aware isolation claim, made checkable by `splitbench report`.

package exp

import (
	"fmt"
	"time"

	"splitio/internal/attr"
	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/sim"
	"splitio/internal/trace"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// inversionWorkload names the antagonist pair in reports.
const inversionWorkload = "fsync-appender (BE prio 4) vs idle bulk writer"

// spawnEntangled starts the antagonist pair on k: a best-effort fsync
// appender (the first user process, PID 100) on a logBytes file against an
// idle-class paced bulk writer on a bulkBytes file. Shared by the
// inversion, report, gcsweep and slo experiments so they all observe the
// same phenomenon.
func spawnEntangled(k *core.Kernel, logBytes, bulkBytes int64) {
	fa := k.FS.MkFileContiguous("/log", logBytes)
	fb := k.FS.MkFileContiguous("/bulk", bulkBytes)
	k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.FsyncAppender(k, p, pr, fa, 4096)
	})
	k.Spawn("B", 7, func(p *sim.Proc, pr *vfs.Process) {
		// Paced random bursts rather than a full-throttle writer: an
		// unbounded writer dirties so much that a CFQ fsync (which must
		// flush every ordered data dependency) outlives the whole run and
		// the entanglement never even surfaces as a completed span.
		pr.Ctx.Class = block.ClassIdle
		for {
			workload.WriteBurst(k, p, pr, fb, 64<<10, 4<<20)
			p.Sleep(500 * time.Millisecond)
		}
	})
}

// runAttributed builds a kernel under sched (mut, when non-nil, adjusts
// its options), lets setup populate it, runs it for d of scaled virtual
// time, and returns the run's attribution. The attribution sink rides on
// the shared -trace tracer, or on a private enabled one, for this run
// only.
func runAttributed(o Options, sched string, d time.Duration, mut func(*core.Options), setup func(*core.Kernel)) *attr.Attribution {
	tr := o.Tracer
	if tr == nil {
		tr = trace.New()
		tr.Enable()
	}
	at := attr.New()
	tr.Attach(at)
	defer tr.Detach(at)
	k := newKernel(sched, o, func(opt *core.Options) {
		if mut != nil {
			mut(opt)
		}
		opt.Tracer = tr
	})
	defer k.Env.Close()
	setup(k)
	k.Run(o.dur(d))
	return at
}

// isolatesIdleWriter are the schedulers that hold the entangled workload's
// idle-class writer at the memory level, so the appender's fsyncs never
// wait on its dirty data: they must show no inversion and no SLO breach.
// Both Split-Deadline variants (split-deadline, split-pdflush) are not:
// they have no idle class and bound fsync latency by deadline instead
// (paper §5.2).
var isolatesIdleWriter = map[string]bool{
	"afq":         true,
	"gc-afq":      true,
	"split-token": true,
}

// IsolatesIdleWriter reports whether name is one of the schedulers that
// `splitbench report` gates: an inversion or, with -slo, an SLO breach
// under it fails the run.
func IsolatesIdleWriter(name string) bool { return isolatesIdleWriter[name] }

// BuildReport runs the entangled workload under each scheduler and
// assembles the full attribution report (the `splitbench report` payload).
// Scheduler runs are independent machines, so they dispatch through
// Options.Runner; sections merge in the order schedulers were requested.
// With o.Monitor set the runs are inline, so o.Monitor.Machines[i] is the
// monitor of schedulers[i]'s machine.
func BuildReport(o Options, schedulers []string) *attr.Report {
	return buildReport(o, "report", schedulers)
}

// buildReport is BuildReport with its cells keyed under experiment.
func buildReport(o Options, experiment string, schedulers []string) *attr.Report {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	scale := o.Scale
	if scale <= 0 {
		scale = 1
	}
	var cells []cell[attr.SchedReport]
	for _, sched := range schedulers {
		cells = append(cells, cell[attr.SchedReport]{"sched=" + sched, func() attr.SchedReport {
			return runAttributed(o, sched, 10*time.Second, nil, func(k *core.Kernel) {
				spawnEntangled(k, 64<<20, 1<<30)
			}).Summary(sched)
		}})
	}
	return &attr.Report{
		Seed: seed, Scale: scale, Workload: inversionWorkload,
		Schedulers: runCells(o, experiment, cells),
	}
}

// InversionExp regenerates the inversion comparison as a table: per-kind
// inversion counts and victim time under a block-level scheduler, a split
// scheduler, and the noop baseline, read from the report's sections.
// Metrics["violations_total"] counts inversions detected under schedulers
// that isolate the idle writer — nonzero fails the bench run, wiring the paper's claim into
// CI.
func InversionExp(o Options) *Table {
	t := &Table{
		ID:     "inversion",
		Title:  "Latency attribution and inversion detection (" + inversionWorkload + ")",
		Header: []string{"scheduler", "requests", "txn-commit", "ordered-flush", "writeback", "gc-stall", "victim time"},
		Metrics: map[string]float64{
			"violations_total": 0,
		},
	}
	for _, sr := range buildReport(o, "inversion", []string{"noop", "cfq", "afq"}).Schedulers {
		var victim time.Duration
		var total int64
		counts := map[string]int64{}
		for _, kc := range sr.InversionCounts {
			victim += time.Duration(kc.TotalNS)
			total += kc.Count
			counts[kc.Kind] = kc.Count
		}
		t.Rows = append(t.Rows, []string{
			sr.Scheduler,
			fmt.Sprintf("%d", sr.Requests),
			fmt.Sprintf("%d", counts[attr.KindTxnCommit.String()]),
			fmt.Sprintf("%d", counts[attr.KindOrderedFlush.String()]),
			fmt.Sprintf("%d", counts[attr.KindWriteback.String()]),
			fmt.Sprintf("%d", counts[attr.KindGCStall.String()]),
			victim.Round(time.Millisecond).String(),
		})
		t.Metrics[sr.Scheduler+"_inversions"] = float64(total)
		if isolatesIdleWriter[sr.Scheduler] {
			t.Metrics["violations_total"] += float64(total)
		}
	}
	t.Notes = "Inversions: intervals where a request's critical path ran through another process's work.\n" +
		"Block-level scheduling entangles the appender's commits with the idle writer's data;\n" +
		"split scheduling (AFQ) holds the writer at the memory level, so none occur."
	return t
}
