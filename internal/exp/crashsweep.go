package exp

import (
	"fmt"
	"time"

	"splitio/internal/core"
	"splitio/internal/crash"
	"splitio/internal/fault"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// crashSchedulers lists every scheduler the crash sweep exercises, in report
// order (every entry of the factories map).
var crashSchedulers = []string{
	"noop", "cfq", "block-deadline", "scs-token",
	"afq", "gc-afq", "split-deadline", "split-pdflush", "split-token",
}

// crashCellResult is one (scheduler, fs, disk) cell's result: its table
// row and what the merged metrics and notes are built from.
type crashCellResult struct {
	Row        []string
	Key        string // sched_fs_disk, the metric and note prefix
	Images     int64
	Violations int
	Samples    []string // first few violations, formatted
}

// CrashSweep runs a fault-injected workload mix (fsync appends, random
// write+fsync, sequential streaming, metadata creates) under every scheduler
// on {ext4sim, cowsim} x {HDD, SSD, FTL SSD}, then sweeps crash images over
// each run's persistence log and checks the durability invariants. The FTL
// rows also pin composition: the fault wrapper's annotation/durability
// surfaces and the FTL's GC must not disturb each other (GC migrations are
// device-internal and never appear as media writes in the log). Power cuts and torn
// writes are legal device behavior, so a correct stack yields zero
// violations on every row — that is the acceptance gate `make crashsweep`
// enforces.
//
// The (fs, disk, scheduler) cells are independent simulations, so they
// dispatch through Options.Runner; rows merge back in the canonical
// fs-disk-scheduler order regardless of which worker finishes first.
func CrashSweep(o Options) *Table {
	t := &Table{
		ID:    "crashsweep",
		Title: "Crash-consistency sweep: legal crash images across schedulers, file systems, disks",
		Header: []string{
			"scheduler", "fs", "disk", "writes", "commits",
			"cuts", "images", "replays", "violations",
		},
	}
	t.Metrics = map[string]float64{}
	window := o.dur(2 * time.Second)

	var cells []cell[crashCellResult]
	for _, fsKind := range []core.FSKind{core.Ext4, core.COW} {
		for _, disk := range []core.DiskKind{core.HDD, core.SSD, core.FTLSSD} {
			for _, sched := range crashSchedulers {
				planSeed := o.Seed + int64(len(cells)+1)*7919
				cells = append(cells, cell[crashCellResult]{fmt.Sprintf("sched=%s fs=%s disk=%s", sched, fsKind, disk),
					func() crashCellResult { return runCrashCell(o, sched, fsKind, disk, planSeed, window) }})
			}
		}
	}
	for _, r := range runCells(o, "crashsweep", cells) {
		t.Rows = append(t.Rows, r.Row)
		t.Metrics[r.Key+"_violations"] = float64(r.Violations)
		t.Metrics["violations_total"] += float64(r.Violations)
		t.Metrics["images_total"] += float64(r.Images)
		for _, s := range r.Samples {
			t.Notes += fmt.Sprintf("[%s] %s\n", r.Key, s)
		}
	}

	if t.Metrics["violations_total"] == 0 {
		t.Notes += "No violations: every legal crash image recovered to a consistent state."
	}
	return t
}

// runCrashCell is one cell body: build a machine, run the faulted workload
// mix, sweep crash images, and summarize.
func runCrashCell(o Options, sched string, fsKind core.FSKind, disk core.DiskKind, planSeed int64, window time.Duration) crashCellResult {
	plan := fault.NewPlan(planSeed)
	plan.TornProb = 0.1
	plan.CutTime = window / 2
	k := newKernel(sched, o, func(opt *core.Options) {
		opt.Disk = disk
		opt.FS = fsKind
		opt.Fault = plan
	})
	defer k.Env.Close()
	fa := k.FS.MkFileContiguous("/a", 64<<20)
	fb := k.FS.MkFileContiguous("/b", 128<<20)
	fc := k.FS.MkFileContiguous("/c", 256<<20)
	k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.FsyncAppender(k, p, pr, fa, 16<<10)
	})
	k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.RandWriteFsync(k, p, pr, fb, 4096, 128<<20, 256)
	})
	k.Spawn("C", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.SeqWriter(k, p, pr, fc, 64<<10, 256<<20)
	})
	k.Spawn("D", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.Creator(k, p, pr, "/meta", 50*time.Millisecond)
	})
	k.Run(window)

	ck := crash.NewChecker(k.Fault.Log(), crash.ConfigFor(k.FS))
	ck.Tracer = k.Trace
	if o.Metrics != nil {
		ck.RegisterMetrics(k.Metrics)
	}
	vs := ck.Sweep(16, 8, o.Seed)
	if o.Metrics != nil {
		k.Metrics.Sample(k.Env.Now())
	}
	r := crashCellResult{
		Row: []string{
			sched, string(fsKind), string(disk),
			fmt.Sprint(len(k.Fault.Log().Records)),
			fmt.Sprint(k.FS.Commits()),
			fmt.Sprint(ck.CutsSwept),
			fmt.Sprint(ck.ImagesChecked),
			fmt.Sprint(ck.Replays),
			fmt.Sprint(len(vs)),
		},
		Key:        fmt.Sprintf("%s_%s_%s", sched, fsKind, disk),
		Images:     ck.ImagesChecked,
		Violations: len(vs),
	}
	for i, v := range vs {
		if i >= 3 {
			break // a broken invariant repeats; three examples suffice
		}
		r.Samples = append(r.Samples, v.String())
	}
	return r
}
