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
	"splitio/internal/core"
	"splitio/internal/ssd"
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

// runGCCell runs the antagonist pair, with its smaller files, on the aged
// device under sched and returns its table row.
func runGCCell(sched string, o Options) row {
	var dev *ssd.Device
	at := runAttributed(o, sched, 4*time.Second, func(opt *core.Options) {
		opt.Disk = core.FTLSSD
		opt.SSD = gcsweepSSD()
	}, func(k *core.Kernel) {
		dev = k.Disk.(*ssd.Device)
		dev.Age(gcsweepUtil, gcsweepSlack)
		spawnEntangled(k, 32<<20, 128<<20)
	})
	stalls := at.InversionCount(attr.KindGCStall)
	return row{[]string{
		sched,
		fmt.Sprintf("%d", at.Requests()),
		fmt.Sprintf("%d", stalls),
		at.InversionTime(attr.KindGCStall).Round(time.Millisecond).String(),
		fmt.Sprintf("%d", at.TotalInversions()-stalls),
		fmt.Sprintf("%.2f", dev.WriteAmp()),
		fmt.Sprintf("%d", dev.GCRuns()),
		fmt.Sprintf("%d", dev.MinFreeBlocks()),
	}, map[string]float64{
		sched + "_gc_inversions": float64(stalls),
		sched + "_gc_runs":       float64(dev.GCRuns()),
	}}
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
	}
	var cells []cell[row]
	for _, sched := range gcsweepSchedulers {
		cells = append(cells, cell[row]{"sched=" + sched, func() row { return runGCCell(sched, o) }})
	}
	t.addRows(runCells(o, "gcsweep", cells))
	t.Metrics["violations_total"] = t.Metrics["gc-afq_gc_inversions"]
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
