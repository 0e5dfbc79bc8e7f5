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
	"splitio/internal/sweep"
	"splitio/internal/trace"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// inversionWorkload names the antagonist pair in reports.
const inversionWorkload = "fsync-appender (BE prio 4) vs idle bulk writer"

// spawnEntangled starts the antagonist pair on k: a best-effort fsync
// appender (the first user process, PID 100) against an idle-class paced
// bulk writer. Shared by the inversion, report, and slo experiments so they
// all observe the same phenomenon.
func spawnEntangled(k *core.Kernel) {
	fa := k.FS.MkFileContiguous("/log", 64<<20)
	fb := k.FS.MkFileContiguous("/bulk", 1<<30)
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

// runEntangled runs the antagonist pair under sched and returns the
// attribution of the run.
func runEntangled(sched string, o Options) *attr.Attribution {
	tr := o.Tracer
	if tr == nil {
		tr = trace.New()
		tr.Enable()
	}
	at := attr.New()
	tr.Attach(at)
	defer tr.Detach(at)
	k := newKernel(sched, o, func(opt *core.Options) {
		opt.Tracer = tr
	})
	defer k.Env.Close()
	spawnEntangled(k)
	k.Run(o.dur(10 * time.Second))
	return at
}

// splitSchedulers are the schedulers the paper claims are inversion-free
// on the entangled workload and SLO-clean under the monitor.
var splitSchedulers = map[string]bool{
	"afq":            true,
	"gc-afq":         true,
	"split-deadline": true,
	"split-pdflush":  true,
	"split-token":    true,
}

// IsSplitScheduler reports whether name is a split-level scheduler: one
// that must show no inversions in `splitbench report` and no SLO breach in
// `splitbench monitor`.
func IsSplitScheduler(name string) bool { return splitSchedulers[name] }

// BuildReport runs the entangled workload under each scheduler and
// assembles the full attribution report (the `splitbench report` payload).
// Scheduler runs are independent machines, so they dispatch through
// Options.Runner; sections merge in the order schedulers were requested.
func BuildReport(o Options, schedulers []string) *attr.Report {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	scale := o.Scale
	if scale <= 0 {
		scale = 1
	}
	rep := &attr.Report{Seed: seed, Scale: scale, Workload: inversionWorkload}
	cells := make([]sweep.Cell, len(schedulers))
	for i, sched := range schedulers {
		sched := sched
		cells[i] = sweep.Cell{
			Key: o.cellKey("report", "sched="+sched),
			Run: jsonCell(func() any {
				return runEntangled(sched, o).Summary(sched)
			}),
		}
	}
	o.runCells(cells, func(i int, data []byte) {
		var sr attr.SchedReport
		mustUnmarshal(data, &sr)
		rep.Schedulers = append(rep.Schedulers, sr)
	})
	return rep
}

// InversionExp regenerates the inversion comparison as a table: per-kind
// inversion counts and victim time under a block-level scheduler, a split
// scheduler, and the noop baseline. Metrics["violations_total"] counts
// inversions detected under split schedulers — nonzero fails the bench
// run, wiring the paper's claim into CI.
func InversionExp(o Options) *Table {
	t := &Table{
		ID:     "inversion",
		Title:  "Latency attribution and inversion detection (" + inversionWorkload + ")",
		Header: []string{"scheduler", "requests", "txn-commit", "ordered-flush", "writeback", "gc-stall", "victim time"},
		Metrics: map[string]float64{
			"violations_total": 0,
		},
	}
	// One cell per scheduler: counts by kind, in attr.Kinds() order.
	type invCell struct {
		Requests int64   `json:"requests"`
		Counts   []int64 `json:"counts"`
		DurNS    []int64 `json:"dur_ns"`
	}
	scheds := []string{"noop", "cfq", "afq"}
	cells := make([]sweep.Cell, len(scheds))
	for i, sched := range scheds {
		sched := sched
		cells[i] = sweep.Cell{
			Key: o.cellKey("inversion", "sched="+sched),
			Run: jsonCell(func() any {
				at := runEntangled(sched, o)
				c := invCell{Requests: at.Requests()}
				for _, k := range attr.Kinds() {
					c.Counts = append(c.Counts, at.InversionCount(k))
					c.DurNS = append(c.DurNS, int64(at.InversionTime(k)))
				}
				return c
			}),
		}
	}
	kindIdx := map[attr.Kind]int{}
	for i, k := range attr.Kinds() {
		kindIdx[k] = i
	}
	o.runCells(cells, func(i int, data []byte) {
		var c invCell
		mustUnmarshal(data, &c)
		sched := scheds[i]
		var victim time.Duration
		var total int64
		for ki := range attr.Kinds() {
			victim += time.Duration(c.DurNS[ki])
			total += c.Counts[ki]
		}
		t.Rows = append(t.Rows, []string{
			sched,
			fmt.Sprintf("%d", c.Requests),
			fmt.Sprintf("%d", c.Counts[kindIdx[attr.KindTxnCommit]]),
			fmt.Sprintf("%d", c.Counts[kindIdx[attr.KindOrderedFlush]]),
			fmt.Sprintf("%d", c.Counts[kindIdx[attr.KindWriteback]]),
			fmt.Sprintf("%d", c.Counts[kindIdx[attr.KindGCStall]]),
			victim.Round(time.Millisecond).String(),
		})
		t.Metrics[sched+"_inversions"] = float64(total)
		if splitSchedulers[sched] {
			t.Metrics["violations_total"] += float64(total)
		}
	})
	t.Notes = "Inversions: intervals where a request's critical path ran through another process's work.\n" +
		"Block-level scheduling entangles the appender's commits with the idle writer's data;\n" +
		"split scheduling (AFQ) holds the writer at the memory level, so none occur."
	return t
}
