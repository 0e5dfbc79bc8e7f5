package exp

import (
	"fmt"
	"time"

	"splitio/internal/apps/hdfssim"
	"splitio/internal/apps/pgsim"
	"splitio/internal/apps/qemusim"
	"splitio/internal/apps/sqlitesim"
	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/sched/stoken"
	"splitio/internal/sim"
)

// Fig18 runs the SQLite workload across checkpoint thresholds under
// Block-Deadline and Split-Deadline, reporting transaction tail latencies.
func Fig18(o Options) *Table {
	t := &Table{
		ID:     "fig18",
		Title:  "Fig 18: SQLite transaction tail latencies vs checkpoint threshold",
		Header: []string{"scheduler", "ckpt threshold", "txn p99 (ms)", "txn p99.9 (ms)", "txns"},
	}
	t.Metrics = map[string]float64{}
	for _, sched := range []string{"block-deadline", "split-deadline"} {
		for _, threshold := range []int{64, 256, 512, 1024} {
			k := newKernel(sched, o, nil)
			cfg := sqlitesim.DefaultConfig()
			cfg.CheckpointThreshold = threshold
			db := sqlitesim.Open(k, cfg)
			k.Run(o.dur(60 * time.Second))
			p99 := db.Latencies.Percentile(99)
			p999 := db.Latencies.Percentile(99.9)
			t.Rows = append(t.Rows, []string{
				sched, fmt.Sprint(threshold), ms(p99), ms(p999), fmt.Sprint(db.Txns()),
			})
			t.Metrics[fmt.Sprintf("%s_%d_p999_ms", sched, threshold)] =
				float64(p999) / float64(time.Millisecond)
			k.Env.Close()
		}
	}
	t.Notes = "Paper: Split-Deadline cuts p99.9 about 4x at the 1K-buffer threshold."
	if b, s := t.Metrics["block-deadline_1024_p999_ms"], t.Metrics["split-deadline_1024_p999_ms"]; s > 0 {
		t.Metrics["p999_improvement_1024"] = b / s
	}
	return t
}

// Fig19 runs the pgbench-like workload on SSD under three schedulers and
// reports the latency distribution (the paper's CDF as key quantiles).
func Fig19(o Options) *Table {
	t := &Table{
		ID:     "fig19",
		Title:  "Fig 19: PostgreSQL transaction latencies (SSD, 15 ms target)",
		Header: []string{"scheduler", "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "% > 15ms", "% > 500ms", "txns"},
	}
	t.Metrics = map[string]float64{}
	for _, sched := range []string{"block-deadline", "split-pdflush", "split-deadline"} {
		k := newKernel(sched, o, func(opt *core.Options) { opt.Disk = core.SSD })
		cfg := pgsim.DefaultConfig()
		cfg.CheckpointInterval = 10 * time.Second
		cfg.RowsPerTxn = 8
		cfg.ThinkTime = 500 * time.Microsecond
		s := pgsim.Start(k, cfg)
		k.Run(o.dur(60 * time.Second))
		t.Rows = append(t.Rows, []string{
			sched, ms(s.P(50)), ms(s.P(99)), ms(s.P(99.9)),
			fmt.Sprintf("%.2f%%", s.FractionAbove(15*time.Millisecond)*100),
			fmt.Sprintf("%.2f%%", s.FractionAbove(500*time.Millisecond)*100),
			fmt.Sprint(s.Txns()),
		})
		t.Metrics[sched+"_miss15ms"] = s.FractionAbove(15 * time.Millisecond)
		t.Metrics[sched+"_p99_ms"] = float64(s.P(99)) / float64(time.Millisecond)
		k.Env.Close()
	}
	t.Notes = "The checkpoint 'fsync freeze' hits Block-Deadline; Split-Deadline schedules around the 5 ms foreground deadlines."
	return t
}

// Fig20 repeats the token-bucket comparison with A and B inside separate
// QEMU guests: throttling applies to whole VMs at the host.
func Fig20(o Options) *Table {
	t := &Table{
		ID:     "fig20",
		Title:  "Fig 20: QEMU guests over SCS-Token vs Split-Token on the host",
		Header: []string{"B guest workload", "host scheduler", "A guest MB/s", "B guest MB/s"},
	}
	t.Metrics = map[string]float64{}
	workloads := []string{"read-rand", "read-seq", "read-mem", "write-rand", "write-seq", "write-mem"}
	for _, wname := range workloads {
		for _, sched := range []string{"scs-token", "split-token"} {
			k := newKernel(sched, o, nil)
			limit(k, "vmB", 1<<20)
			vmA := qemusim.Launch(k, "vmA", qemusim.DefaultConfig(""))
			vmB := qemusim.Launch(k, "vmB", qemusim.DefaultConfig("vmB"))
			// A: sequential reader inside its guest.
			k.Env.Go("guestA", func(p *sim.Proc) {
				var off int64
				for {
					if off+1<<20 > 4<<30 {
						off = 0
					}
					vmA.Read(p, off, 1<<20)
					off += 1 << 20
				}
			})
			k.Env.Go("guestB", func(p *sim.Proc) {
				rng := k.Env.Rand()
				pages := int64(4 << 30 / cache.PageSize)
				switch wname {
				case "read-rand":
					for {
						vmB.Read(p, rng.Int63n(pages)*cache.PageSize, 4096)
					}
				case "read-seq":
					var off int64
					for {
						if off+1<<20 > 4<<30 {
							off = 0
						}
						vmB.Read(p, off, 1<<20)
						off += 1 << 20
					}
				case "read-mem":
					vmB.Write(p, 0, 16<<20) // populate the guest cache
					for {
						vmB.Read(p, 0, 16<<20)
					}
				case "write-rand":
					for {
						vmB.Write(p, rng.Int63n(pages)*cache.PageSize, 4096)
					}
				case "write-seq":
					var off int64
					for {
						if off+1<<20 > 4<<30 {
							off = 0
						}
						vmB.Write(p, off, 1<<20)
						off += 1 << 20
					}
				case "write-mem":
					for {
						vmB.Write(p, 0, 16<<20)
					}
				}
			})
			k.Run(o.dur(4 * time.Second))
			aStart, bStart := vmA.BytesRead(), vmB.BytesRead()+vmB.BytesWritten()
			startT := k.Now()
			k.Run(o.dur(12 * time.Second))
			el := k.Now().Sub(startT).Seconds()
			aTp := float64(vmA.BytesRead()-aStart) / el / (1 << 20)
			bTp := float64(vmB.BytesRead()+vmB.BytesWritten()-bStart) / el / (1 << 20)
			t.Rows = append(t.Rows, []string{wname, sched, mbps(aTp), mbps(bTp)})
			t.Metrics[fmt.Sprintf("%s_%s_a_mbps", wname, sched)] = aTp
			t.Metrics[fmt.Sprintf("%s_%s_b_mbps", wname, sched)] = bTp
			k.Env.Close()
		}
	}
	t.Notes = "Guest caches sit above both schedulers, so mem workloads run fast under each; random I/O still breaks SCS isolation."
	return t
}

// fig21Cluster builds one Fig 21 configuration on env: Split-Token workers
// with blockMB blocks and the throttled group capped at capMB per worker.
// The workers share env, so they are built by hdfssim rather than
// newKernel, from the same kernelOptions.
func fig21Cluster(o Options, env *sim.Env, blockMB int64, capMB float64) *hdfssim.Cluster {
	cfg := hdfssim.DefaultConfig(stoken.Factory)
	cfg.BlockBytes = blockMB << 20
	cfg.WorkerOpts = o.kernelOptions()
	c := hdfssim.NewCluster(env, cfg)
	for _, w := range c.Workers() {
		o.register(w, "split-token")
		limit(w, "throttled", capMB*(1<<20))
	}
	return c
}

// Fig21 runs the HDFS cluster: an unthrottled group and a throttled group
// of writers, sweeping the throttled group's per-worker rate cap, at 64 MiB
// and 16 MiB block sizes.
func Fig21(o Options) *Table {
	t := &Table{
		ID:     "fig21",
		Title:  "Fig 21: HDFS isolation — group throughputs vs rate cap",
		Header: []string{"block size", "rate cap MB/s", "throttled MB/s", "unthrottled MB/s", "bound (cap/3*7)"},
	}
	t.Metrics = map[string]float64{}
	const writersPerGroup = 4
	for _, blockMB := range []int64{64, 16} {
		for _, capMB := range []float64{8, 16, 32, 64} {
			env := sim.NewEnv(o.Seed)
			c := fig21Cluster(o, env, blockMB, capMB)
			var throttled, unthrottled []*hdfssim.Client
			for i := 0; i < writersPerGroup; i++ {
				ct := c.NewClient(fmt.Sprintf("t%d", i), "throttled")
				cu := c.NewClient(fmt.Sprintf("u%d", i), "")
				throttled = append(throttled, ct)
				unthrottled = append(unthrottled, cu)
				env.Go("t-client", func(p *sim.Proc) { ct.WriteLoop(p) })
				env.Go("u-client", func(p *sim.Proc) { cu.WriteLoop(p) })
			}
			env.Run(env.Now().Add(o.dur(5 * time.Second)))
			for _, cl := range append(append([]*hdfssim.Client{}, throttled...), unthrottled...) {
				cl.ResetStats(env.Now())
			}
			env.Run(env.Now().Add(o.dur(30 * time.Second)))
			var tSum, uSum float64
			for _, cl := range throttled {
				tSum += cl.MBps(env.Now())
			}
			for _, cl := range unthrottled {
				uSum += cl.MBps(env.Now())
			}
			bound := capMB / 3 * float64(len(c.Workers()))
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%dMB", blockMB), fmt.Sprintf("%.0f", capMB),
				mbps(tSum), mbps(uSum), mbps(bound),
			})
			t.Metrics[fmt.Sprintf("blk%d_cap%.0f_throttled", blockMB, capMB)] = tSum
			t.Metrics[fmt.Sprintf("blk%d_cap%.0f_unthrottled", blockMB, capMB)] = uSum
			t.Metrics[fmt.Sprintf("blk%d_cap%.0f_bound", blockMB, capMB)] = bound
			env.Close()
		}
	}
	t.Notes = "Smaller caps on the throttled group buy the unthrottled group throughput; 16 MB blocks balance load and close the gap to the bound."
	return t
}
