package exp

import (
	"fmt"
	"time"

	"splitio/internal/core"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// Fig11 compares AFQ and CFQ across the four priority workloads: (a)
// sequential reads, (b) async sequential writes, (c) synchronous random
// writes with fsync, (d) memory overwrites.
func Fig11(o Options) *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "Fig 11: AFQ vs CFQ priority allocation (deviation from proportional ideal)",
		Header: []string{"workload", "scheduler", "per-prio MB/s (0..7)", "deviation", "total MB/s"},
	}
	t.Metrics = map[string]float64{}

	type panel struct {
		name    string
		perPrio int
		spawn   func(k *core.Kernel, prio, j int) *vfs.Process
		warm    time.Duration
		run     time.Duration
	}
	panels := []panel{
		{"seq-read", 1, func(k *core.Kernel, prio, j int) *vfs.Process {
			f := k.FS.MkFileContiguous(fmt.Sprintf("/r%d_%d", prio, j), 2<<30)
			return k.Spawn("reader", prio, func(p *sim.Proc, pr *vfs.Process) {
				workload.SeqReader(k, p, pr, f, 1<<20)
			})
		}, 2 * time.Second, 20 * time.Second},
		{"async-write", 1, func(k *core.Kernel, prio, j int) *vfs.Process {
			path := fmt.Sprintf("/w%d_%d", prio, j)
			return k.Spawn("writer", prio, func(p *sim.Proc, pr *vfs.Process) {
				f, err := k.VFS.Create(p, pr, path)
				if err != nil {
					return
				}
				workload.SeqWriter(k, p, pr, f, 1<<20, 8<<30)
			})
		}, 10 * time.Second, 40 * time.Second},
		{"sync-rand-write", 2, func(k *core.Kernel, prio, j int) *vfs.Process {
			f := k.FS.MkFileContiguous(fmt.Sprintf("/s%d_%d", prio, j), 512<<20)
			return k.Spawn("syncer", prio, func(p *sim.Proc, pr *vfs.Process) {
				workload.RandWriteFsync(k, p, pr, f, 4096, 512<<20, 1)
			})
		}, 5 * time.Second, 60 * time.Second},
		{"mem-overwrite", 1, func(k *core.Kernel, prio, j int) *vfs.Process {
			path := fmt.Sprintf("/m%d_%d", prio, j)
			return k.Spawn("mem", prio, func(p *sim.Proc, pr *vfs.Process) {
				f, err := k.VFS.Create(p, pr, path)
				if err != nil {
					return
				}
				workload.MemWriter(k, p, pr, f, 4<<20)
			})
		}, time.Second, 5 * time.Second},
	}
	prios := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// Each (panel, scheduler) pair is its own machine; rows merge in
	// panel-major order.
	var cells []cell[row]
	for _, pn := range panels {
		for _, sched := range []string{"cfq", "afq"} {
			cells = append(cells, cell[row]{fmt.Sprintf("panel=%s sched=%s", pn.name, sched), func() row {
				k := newKernel(sched, o, nil)
				defer k.Env.Close()
				var all []*vfs.Process
				for _, prio := range prios {
					for j := 0; j < pn.perPrio; j++ {
						all = append(all, pn.spawn(k, prio, j))
					}
				}
				k.Run(o.dur(pn.warm))
				perPrio := make([]float64, len(prios))
				var total float64
				for i, tp := range measure(k, o.dur(pn.run), all...) {
					perPrio[i/pn.perPrio] += tp
					total += tp
				}
				ideal := make([]float64, len(prios))
				for i, p := range prios {
					ideal[i] = float64(8 - p)
				}
				dev := metrics.DeviationFromIdeal(perPrio, ideal)
				cols := []string{pn.name, sched, joinMBps(perPrio), fmt.Sprintf("%.0f%%", dev*100), mbps(total)}
				if pn.name == "mem-overwrite" {
					cols[3] = "n/a" // no disk contention, no fairness goal
				}
				return row{cols, map[string]float64{
					fmt.Sprintf("%s_%s_deviation", pn.name, sched):  dev,
					fmt.Sprintf("%s_%s_total_mbps", pn.name, sched): total,
				}}
			}})
		}
	}
	t.addRows(runCells(o, "fig11", cells))
	t.Notes = "Paper: CFQ deviates 82% (async write) and 86% (sync write) from the ideal; AFQ 16% and 3%."
	return t
}

func joinMBps(vs []float64) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += "/"
		}
		if v < 10 {
			s += fmt.Sprintf("%.2f", v)
		} else {
			s += fmt.Sprintf("%.0f", v)
		}
	}
	return s
}

// Fig12 compares Block-Deadline and Split-Deadline on the database-like
// fsync workload, on both HDD and SSD.
func Fig12(o Options) *Table {
	var cells []cell[row]
	for _, disk := range []core.DiskKind{core.HDD, core.SSD} {
		for _, sched := range []string{"block-deadline", "split-deadline"} {
			cells = append(cells, cell[row]{fmt.Sprintf("disk=%s sched=%s", disk, sched), func() row {
				k := newKernel(sched, o, func(opt *core.Options) { opt.Disk = disk })
				defer k.Env.Close()
				fa := k.FS.MkFileContiguous("/a", 64<<20)
				fb := k.FS.MkFileContiguous("/b", 2<<30)
				a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
					pr.Ctx.FsyncDeadline = 100 * time.Millisecond
					pr.Ctx.ReadDeadline = 100 * time.Millisecond
					pr.Ctx.WriteDeadline = 20 * time.Millisecond
					workload.FsyncAppender(k, p, pr, fa, 4096)
				})
				b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
					pr.Ctx.FsyncDeadline = time.Second
					pr.Ctx.WriteDeadline = 20 * time.Millisecond
					workload.RandWriteFsync(k, p, pr, fb, 4096, 2<<30, 1024)
				})
				k.Run(o.dur(60 * time.Second))
				qs := a.Fsyncs.Quantiles([]float64{50, 99})
				return row{[]string{
					string(disk), sched,
					ms(qs[0]), ms(qs[1]),
					ms(a.Fsyncs.Max()), fmt.Sprint(b.Fsyncs.Count()),
				}, map[string]float64{
					fmt.Sprintf("%s_%s_p99_ms", disk, sched): float64(qs[1]) / float64(time.Millisecond),
				}}
			}})
		}
	}
	t := &Table{
		ID:     "fig12",
		Title:  "Fig 12: A's fsync latency while B checkpoints (deadline schedulers)",
		Header: []string{"disk", "scheduler", "A p50 (ms)", "A p99 (ms)", "A max (ms)", "B fsyncs"},
	}
	t.addRows(runCells(o, "fig12", cells))
	t.Notes = "Split-Deadline holds A near its 100 ms fsync deadline; Block-Deadline's latency explodes with B's bursts."
	return t
}

// Fig13: the Fig 6 matrix under Split-Token on ext4.
func Fig13(o Options) *Table {
	t, aTps := tokenIsolation(o, "fig13", "split-token", core.Ext4)
	t.Title = "Fig 13: Split-Token isolation (ext4) — A's throughput vs B's pattern"
	t.Notes = "Paper: A's standard deviation drops from 41 MB (SCS) to ~7 MB."
	t.Metrics = map[string]float64{
		"a_stddev_mbps": metrics.StdDev(aTps),
		"a_mean_mbps":   metrics.Mean(aTps),
	}
	return t
}

// Fig14 compares Split-Token and SCS-Token over six canonical workloads:
// {read,write} x {rand,seq,mem}, with B throttled to 1 MB/s normalized.
func Fig14(o Options) *Table {
	scheds := []string{"scs-token", "split-token"}
	// Baseline: A alone. The matrix cells below need these numbers, so the
	// baselines run first, as their own cells.
	var bases []cell[float64]
	for _, sched := range scheds {
		bases = append(bases, cell[float64]{"baseline sched=" + sched, func() float64 {
			k := newKernel(sched, o, nil)
			defer k.Env.Close()
			fa := k.FS.MkFileContiguous("/a", 4<<30)
			a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
				workload.SeqReader(k, p, pr, fa, 1<<20)
			})
			k.Run(o.dur(2 * time.Second))
			return measure(k, o.dur(10*time.Second), a)[0]
		}})
	}
	baselines := runCells(o, "fig14", bases)
	var cells []cell[row]
	for _, w := range []string{"read-rand", "read-seq", "read-mem", "write-rand", "write-seq", "write-mem"} {
		for si, sched := range scheds {
			cells = append(cells, cell[row]{fmt.Sprintf("workload=%s sched=%s", w, sched), func() row {
				k := newKernel(sched, o, nil)
				defer k.Env.Close()
				fa := k.FS.MkFileContiguous("/a", 4<<30)
				fb := k.FS.MkFileContiguous("/b", 4<<30)
				limit(k, "b", 1<<20)
				a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
					workload.SeqReader(k, p, pr, fa, 1<<20)
				})
				b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
					pr.Ctx.Account = "b"
					switch w {
					case "read-rand":
						workload.RandReader(k, p, pr, fb, 4096)
					case "read-seq":
						workload.RunReader(k, p, pr, fb, 4<<20)
					case "read-mem":
						// Warm the cache via an unthrottled setup identity so
						// the measurement window sees the steady (cached) state.
						small := k.FS.MkFileContiguous("/bmem", 4<<20)
						warmer := k.VFS.NewProcess("warmer", 4)
						k.VFS.Read(p, warmer, small, 0, 4<<20)
						workload.MemReader(k, p, pr, small)
					case "write-rand":
						workload.RandWriter(k, p, pr, fb, 4096, 4<<30)
					case "write-seq":
						workload.RunWriter(k, p, pr, fb, 4<<20)
					case "write-mem":
						small, err := k.VFS.Create(p, pr, "/bmem")
						if err != nil {
							return
						}
						workload.MemWriter(k, p, pr, small, 4<<20)
					}
				})
				k.Run(o.dur(4 * time.Second))
				tps := measure(k, o.dur(15*time.Second), a, b)
				slow := 1 - tps[0]/baselines[si]
				return row{[]string{w, sched, mbps(tps[0]), pct(slow), mbps(tps[1])}, map[string]float64{
					fmt.Sprintf("%s_%s_a_slowdown", w, sched): slow,
					fmt.Sprintf("%s_%s_b_mbps", w, sched):     tps[1],
				}}
			}})
		}
	}
	t := &Table{
		ID:     "fig14",
		Title:  "Fig 14: Split-Token vs SCS-Token — A's slowdown and B's throughput",
		Header: []string{"B workload", "scheduler", "A MB/s", "A slowdown", "B MB/s"},
	}
	t.addRows(runCells(o, "fig14", cells))
	if s, b := t.Metrics["write-mem_split-token_b_mbps"], t.Metrics["write-mem_scs-token_b_mbps"]; b > 0 {
		t.Metrics["write_mem_speedup"] = s / b
	}
	if s, b := t.Metrics["read-mem_split-token_b_mbps"], t.Metrics["read-mem_scs-token_b_mbps"]; b > 0 {
		t.Metrics["read_mem_speedup"] = s / b
	}
	t.Notes = "Paper: Split-Token hits the isolation target 6/6; SCS misses 3/6 and throttles memory workloads (837x on write-mem)."
	return t
}

// Fig15 sweeps the number of B threads: I/O-bound antagonists stay
// isolated at any count; memory/spin antagonists eventually hurt A through
// CPU contention, which an I/O scheduler cannot fix.
func Fig15(o Options) *Table {
	var cells []cell[row]
	for _, activity := range []string{"seq-read", "mem-read", "spin"} {
		for _, n := range []int{1, 16, 128, 512} {
			cells = append(cells, cell[row]{fmt.Sprintf("activity=%s threads=%d", activity, n), func() row {
				k := newKernel("split-token", o, nil)
				defer k.Env.Close()
				fa := k.FS.MkFileContiguous("/a", 4<<30)
				limit(k, "b", 1<<20)
				a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
					workload.SeqReader(k, p, pr, fa, 1<<20)
				})
				fb := k.FS.MkFileContiguous("/b", 4<<30)
				bmem := k.FS.MkFileContiguous("/bmem", 4<<20)
				// Warm the mem file through an unthrottled identity so B's
				// cache-hit loop starts immediately.
				warmer := k.VFS.NewProcess("warmer", 4)
				k.Env.Go("warmer", func(p *sim.Proc) {
					k.VFS.Read(p, warmer, bmem, 0, 4<<20)
				})
				for i := 0; i < n; i++ {
					k.Spawn(fmt.Sprintf("B%d", i), 4, func(p *sim.Proc, pr *vfs.Process) {
						pr.Ctx.Account = "b"
						p.Sleep(500 * time.Millisecond) // let the warmer finish
						switch activity {
						case "seq-read":
							workload.RunReader(k, p, pr, fb, 4<<20)
						case "mem-read":
							workload.MemReader(k, p, pr, bmem)
						case "spin":
							workload.Spin(k, p, time.Millisecond)
						}
					})
				}
				k.Run(o.dur(2 * time.Second))
				tp := measure(k, o.dur(8*time.Second), a)[0]
				return row{[]string{activity, fmt.Sprint(n), mbps(tp)},
					map[string]float64{fmt.Sprintf("%s_%d_a_mbps", activity, n): tp}}
			}})
		}
	}
	t := &Table{
		ID:     "fig15",
		Title:  "Fig 15: Split-Token scalability with B thread count",
		Header: []string{"B activity", "B threads", "A MB/s"},
	}
	t.addRows(runCells(o, "fig15", cells))
	t.Notes = "I/O antagonists: flat. Memory/spin antagonists degrade A at high thread counts via CPU starvation (the paper's CPU-scheduler reminder)."
	return t
}

// Fig16: the isolation matrix on partially integrated XFS.
func Fig16(o Options) *Table {
	t, aTps := tokenIsolation(o, "fig16", "split-token", core.XFS)
	t.Title = "Fig 16: Split-Token isolation on XFS (partial integration)"
	t.Notes = "Data-intensive workloads are isolated with only buffer tagging (paper: sigma = 12.8 MB)."
	t.Metrics = map[string]float64{
		"a_stddev_mbps": metrics.StdDev(aTps),
		"a_mean_mbps":   metrics.Mean(aTps),
	}
	return t
}

// Fig17 runs the metadata-intensive workload: B creates and fsyncs empty
// files with varying think time. Full ext4 integration maps journal I/O
// back to B and throttles it; partial XFS integration cannot.
func Fig17(o Options) *Table {
	var cells []cell[row]
	for _, fsKind := range []core.FSKind{core.Ext4, core.XFS} {
		for _, sl := range []time.Duration{0, time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond} {
			cells = append(cells, cell[row]{fmt.Sprintf("fs=%s sleep=%s", fsKind, sl), func() row {
				k := newKernel("split-token", o, func(opt *core.Options) { opt.FS = fsKind })
				defer k.Env.Close()
				fa := k.FS.MkFileContiguous("/a", 4<<30)
				limit(k, "b", 4<<20)
				a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
					workload.SeqReader(k, p, pr, fa, 1<<20)
				})
				b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
					pr.Ctx.Account = "b"
					workload.Creator(k, p, pr, "/meta", sl)
				})
				k.Run(o.dur(3 * time.Second))
				start := b.Fsyncs.Count()
				startT := k.Now()
				tp := measure(k, o.dur(15*time.Second), a)[0]
				rate := float64(b.Fsyncs.Count()-start) / k.Now().Sub(startT).Seconds()
				return row{[]string{string(fsKind), sl.String(), mbps(tp), fmt.Sprintf("%.2f", rate)}, map[string]float64{
					fmt.Sprintf("%s_sleep%s_a_mbps", fsKind, sl):  tp,
					fmt.Sprintf("%s_sleep%s_creates", fsKind, sl): rate,
				}}
			}})
		}
	}
	t := &Table{
		ID:     "fig17",
		Title:  "Fig 17: metadata workload — create+fsync antagonist, ext4 vs XFS",
		Header: []string{"fs", "B sleep", "A MB/s", "B creates/s"},
	}
	t.addRows(runCells(o, "fig17", cells))
	t.Notes = "ext4 throttles B's creates regardless of sleep; XFS leaves B unthrottled because journal writes are unmapped."
	return t
}
