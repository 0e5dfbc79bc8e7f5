// GC sweep: the experiment the FTL SSD model exists for. The entangled
// antagonist pair (fsync appender vs idle bulk writer) runs on a
// steady-state-aged FTL SSD whose free pool sits just above the GC
// low-watermark, so foreground writes continuously force victim-block
// migrations. Under block-level schedulers (CFQ, Block-Deadline) — and
// even under plain split AFQ, which isolates the writer but knows nothing
// about the device — migrations hold dies that the appender's sync writes
// then wait on: the gc-stall inversion the attr detector flags. GC-AFQ
// closes the device's GC gate while sync requests are queued or imminent,
// deferring collection to idle periods, and runs the same device clean.

package exp

import (
	"fmt"
	"time"

	"splitio/internal/attr"
	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/sim"
	"splitio/internal/ssd"
	"splitio/internal/sweep"
	"splitio/internal/trace"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// gcsweepSSD is the sweep's device: small enough to age instantly, with
// eight dies so round-robin writes revisit a GC-held die within a couple
// of requests. Aging leaves the free pool two blocks above the
// low-watermark, so the measured window starts with GC already imminent.
func gcsweepSSD() *ssd.Config {
	c := ssd.DefaultConfig()
	c.Channels = 4
	c.DiesPerChan = 2 // 8 dies
	c.PlanesPerDie = 2
	c.BlocksPerPlane = 40 // 640 blocks ≈ 320 MiB physical
	c.PagesPerBlock = 128
	c.OverProvision = 0.125 // 560 exported blocks ≈ 280 MiB
	c.GCLowWater = 40
	c.GCCritical = 8
	return &c
}

// gcsweepAge fills 85% of the exported capacity and overwrites to two
// blocks of slack above the watermark.
const (
	gcsweepUtil  = 0.85
	gcsweepSlack = 2
)

// gcCell is one scheduler's result.
type gcCell struct {
	Requests  int64
	GCStalls  int64
	GCStallNS int64
	OtherInv  int64
	WriteAmp  float64
	GCRuns    int64
	MinFree   int
}

// runGCCell runs the antagonist pair on the aged device under sched with
// an attribution sink attached.
func runGCCell(sched string, o Options) gcCell {
	tr := o.Tracer
	if tr == nil {
		tr = trace.New()
		tr.Enable()
	}
	at := attr.New()
	tr.Attach(at)
	defer tr.Detach(at)
	k := newKernel(sched, o, func(opt *core.Options) {
		opt.Disk = core.FTLSSD
		opt.SSD = gcsweepSSD()
		opt.Tracer = tr
	})
	defer k.Env.Close()
	dev := k.Disk.(*ssd.Device)
	dev.Age(gcsweepUtil, gcsweepSlack)
	fa := k.FS.MkFileContiguous("/log", 32<<20)
	fb := k.FS.MkFileContiguous("/bulk", 128<<20)
	k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.FsyncAppender(k, p, pr, fa, 4096)
	})
	k.Spawn("B", 7, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Class = block.ClassIdle
		for {
			workload.WriteBurst(k, p, pr, fb, 64<<10, 4<<20)
			p.Sleep(500 * time.Millisecond)
		}
	})
	k.Run(o.dur(4 * time.Second))
	c := gcCell{
		Requests:  at.Requests(),
		GCStalls:  at.InversionCount(attr.KindGCStall),
		GCStallNS: int64(at.InversionTime(attr.KindGCStall)),
		OtherInv:  at.TotalInversions() - at.InversionCount(attr.KindGCStall),
		WriteAmp:  dev.WriteAmp(),
		GCRuns:    dev.GCRuns(),
		MinFree:   dev.MinFreeBlocks(),
	}
	return c
}

// gcsweepSchedulers: two block-level schedulers that suffer GC stalls, the
// plain split scheduler that fixes writer entanglement but not GC, and the
// GC-aware variant that fixes both.
var gcsweepSchedulers = []string{"cfq", "block-deadline", "afq", "gc-afq"}

// GCSweep regenerates the GC-inversion comparison. Metrics gate CI two
// ways: gc-stall inversions under the GC-aware scheduler count as
// violations (its claim is running clean), and a CFQ run with no gc-stall
// at all also counts as one (the detector or the aging lost the
// phenomenon the experiment demonstrates).
func GCSweep(o Options) *Table {
	t := &Table{
		ID:    "gcsweep",
		Title: "GC-induced inversions on an aged FTL SSD (" + inversionWorkload + ")",
		Header: []string{
			"scheduler", "requests", "gc-stalls", "stall time",
			"other-inv", "write-amp", "gc-runs", "min-free",
		},
		Metrics: map[string]float64{"violations_total": 0},
	}
	res := make([]gcCell, len(gcsweepSchedulers))
	cells := make([]sweep.Cell, len(gcsweepSchedulers))
	for i, sched := range gcsweepSchedulers {
		cells[i] = sweep.Cell{
			Key: o.cellKey("gcsweep", "sched="+sched),
			Run: func() { res[i] = runGCCell(sched, o) },
		}
	}
	o.runCells(cells)
	for i, c := range res {
		sched := gcsweepSchedulers[i]
		t.Rows = append(t.Rows, []string{
			sched,
			fmt.Sprintf("%d", c.Requests),
			fmt.Sprintf("%d", c.GCStalls),
			time.Duration(c.GCStallNS).Round(time.Millisecond).String(),
			fmt.Sprintf("%d", c.OtherInv),
			fmt.Sprintf("%.2f", c.WriteAmp),
			fmt.Sprintf("%d", c.GCRuns),
			fmt.Sprintf("%d", c.MinFree),
		})
		t.Metrics[sched+"_gc_inversions"] = float64(c.GCStalls)
		t.Metrics[sched+"_gc_runs"] = float64(c.GCRuns)
		if sched == "gc-afq" {
			t.Metrics["violations_total"] += float64(c.GCStalls)
		}
	}
	if t.Metrics["cfq_gc_inversions"] == 0 {
		t.Metrics["violations_total"]++
		t.Notes += "cfq shows no gc-stall inversions: the aged device lost the phenomenon.\n"
	}
	t.Notes += "GC stalls: sync requests waiting on a die held by victim-block migration.\n" +
		"Block-level schedulers cannot see them; plain AFQ isolates the bulk writer but\n" +
		"not the device's own GC; GC-AFQ defers collection while sync requests are\n" +
		"queued (never below the critical watermark) and runs clean."
	return t
}
