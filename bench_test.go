// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment at reduced scale and
// reports its headline metrics via b.ReportMetric, so `go test -bench=.`
// prints the reproduced numbers alongside wall-clock cost. EXPERIMENTS.md
// records the full-scale paper-vs-measured comparison.
package splitio_test

import (
	"testing"
	"time"

	"splitio"
	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/exp"
	"splitio/internal/sched/stoken"
	"splitio/internal/sim"
	"splitio/internal/trace"
	"splitio/internal/vfs"
)

// benchScale keeps each benchmark iteration to a few wall-clock seconds.
const benchScale = 0.2

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *exp.Table
	for i := 0; i < b.N; i++ {
		last = e.Run(exp.Options{Scale: benchScale, Seed: int64(i + 1)})
	}
	for k, v := range last.Metrics {
		b.ReportMetric(v, k)
	}
}

func BenchmarkFig01WriteBurst(b *testing.B)          { runExperiment(b, "fig1") }
func BenchmarkFig03CFQWritePrio(b *testing.B)        { runExperiment(b, "fig3") }
func BenchmarkFig05LatencyDependency(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig06SCSTokenIsolation(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig09Overhead(b *testing.B)            { runExperiment(b, "fig9") }
func BenchmarkFig10TagMemory(b *testing.B)           { runExperiment(b, "fig10") }
func BenchmarkFig11AFQ(b *testing.B)                 { runExperiment(b, "fig11") }
func BenchmarkFig12FsyncLatency(b *testing.B)        { runExperiment(b, "fig12") }
func BenchmarkFig13SplitTokenIsolation(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkFig14TokenComparison(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15Scalability(b *testing.B)         { runExperiment(b, "fig15") }
func BenchmarkFig16XFS(b *testing.B)                 { runExperiment(b, "fig16") }
func BenchmarkFig17Metadata(b *testing.B)            { runExperiment(b, "fig17") }
func BenchmarkFig18SQLite(b *testing.B)              { runExperiment(b, "fig18") }
func BenchmarkFig19PostgreSQL(b *testing.B)          { runExperiment(b, "fig19") }
func BenchmarkFig20QEMU(b *testing.B)                { runExperiment(b, "fig20") }
func BenchmarkFig21HDFS(b *testing.B)                { runExperiment(b, "fig21") }
func BenchmarkTable1Properties(b *testing.B)         { runExperiment(b, "table1") }
func BenchmarkTable2Hooks(b *testing.B)              { runExperiment(b, "table2") }
func BenchmarkTable3Deadlines(b *testing.B)          { runExperiment(b, "table3") }

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationPromptCharge compares Split-Token with and without the
// memory-level preliminary charge (`splitbench abl-prompt`).
func BenchmarkAblationPromptCharge(b *testing.B) { runExperiment(b, "abl-prompt") }

// BenchmarkAblationPdflush contrasts Split-Deadline's full writeback
// control with the Split-Pdflush variant (paper §7.1.2) on the Fig 12
// workload.
func BenchmarkAblationPdflush(b *testing.B) {
	p99 := func(sched string) float64 {
		m := splitio.New(splitio.WithScheduler(sched))
		defer m.Close()
		log := m.CreateContiguousFile("/log", 64<<20)
		table := m.CreateContiguousFile("/table", 2<<30)
		a := m.Spawn("A", splitio.ProcOpts{FsyncDeadline: 100 * time.Millisecond}, func(t *splitio.Task) {
			var off int64
			for {
				t.Write(log, off, 4096)
				t.Fsync(log)
				off += 4096
			}
		})
		m.Spawn("B", splitio.ProcOpts{FsyncDeadline: time.Second}, func(t *splitio.Task) {
			pages := table.Size() / 4096
			for {
				for i := 0; i < 512; i++ {
					t.Write(table, t.Rand63n(pages)*4096, 4096)
				}
				t.Fsync(table)
			}
		})
		m.Run(20 * time.Second)
		return float64(a.FsyncPercentile(99)) / float64(time.Millisecond)
	}
	var full, pdf float64
	for i := 0; i < b.N; i++ {
		full = p99("split-deadline")
		pdf = p99("split-pdflush")
	}
	b.ReportMetric(full, "p99_ms_full_control")
	b.ReportMetric(pdf, "p99_ms_with_pdflush")
}

// BenchmarkAblationScalarTags measures how often set-valued cause tags
// carry more than one cause — the cases a scalar tag (as in DSS/IOFlow)
// would misattribute. Data writes are counted as they enter the block
// layer; their causes are fixed at submit.
func BenchmarkAblationScalarTags(b *testing.B) {
	multiShare := func() float64 {
		opts := core.DefaultOptions()
		k := core.NewKernel(opts, stoken.Factory)
		defer k.Close()
		var multi, total int
		k.Block.OnAdd(func(r *block.Request) {
			if r.Op == device.Write && !r.Journal {
				total++
				if r.Causes.Len() > 1 {
					multi++
				}
			}
		})
		f := k.FS.MkFileContiguous("/shared", 64<<20)
		for i := 0; i < 2; i++ {
			k.Spawn("w", 4, func(p *sim.Proc, pr *vfs.Process) {
				// Two processes dirty the same pages before writeback.
				for {
					k.VFS.Write(p, pr, f, 0, 1<<20)
					p.Sleep(10 * time.Millisecond)
				}
			})
		}
		k.Run(20 * time.Second)
		if total == 0 {
			return 0
		}
		return float64(multi) / float64(total)
	}
	var share float64
	for i := 0; i < b.N; i++ {
		share = multiShare()
	}
	b.ReportMetric(share*100, "multi_cause_write_pct")
}

// BenchmarkAblationXFSFull compares XFS partial and full split
// integration on the Fig 17 metadata antagonist (`splitbench abl-xfsfull`).
func BenchmarkAblationXFSFull(b *testing.B) { runExperiment(b, "abl-xfsfull") }

// BenchmarkTraceDisabledHotPath guards the tracing subsystem's core promise:
// with tracing off (the default for every kernel), the per-request
// instrumentation — one Enabled check, a NextReq, and a Record — performs
// zero allocations. A regression here taxes every untraced experiment.
func BenchmarkTraceDisabledHotPath(b *testing.B) {
	tr := trace.New()
	ev := trace.Event{Layer: trace.LayerBlock, Op: trace.OpQueue, Start: 1, End: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			b.Fatal("tracer should be disabled")
		}
		_ = tr.NextReq()
		tr.Record(ev)
	}
}
