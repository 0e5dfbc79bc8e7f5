package exp

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/device"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// Table1 regenerates the framework-property matrix by probing each
// framework with three micro-experiments rather than asserting it
// statically: cause mapping (does delegated writeback I/O carry the real
// writer?), cost estimation (does the throttle distinguish random from
// sequential?), and reordering (can a tiny fsync overtake a big flush?).
func Table1(o Options) *Table {
	bool2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	// Cause mapping probe: one buffered writer; does the block-level view
	// attribute its flushed I/O to the writer (vs the writeback task)?
	causeMapped := func(sched string, split bool) float64 {
		k := newKernel(sched, o, nil)
		defer k.Env.Close()
		pr := k.Spawn("w", 2, func(p *sim.Proc, pr *vfs.Process) {
			f, err := k.VFS.Create(p, pr, "/f")
			if err != nil {
				return
			}
			k.VFS.Write(p, pr, f, 0, 4<<20)
		})
		seen := 0.0
		k.Block.OnAdd(func(r *block.Request) {
			if r.Op != device.Write || r.Journal {
				return
			}
			if split {
				// Split view: the request's cause tags name the writer.
				if r.Causes.Contains(pr.PID()) {
					seen = 1
				}
			} else {
				// Block view: only the submitter is visible; delegated
				// writeback appears as the writeback task, so the writer is
				// mapped only if it submitted the I/O itself.
				if r.Submitter == pr.PID() {
					seen = 1
				}
			}
		})
		k.Run(o.dur(30 * time.Second))
		return seen
	}

	// Cost estimation probe: under each token scheduler, is a random
	// writer throttled harder than a sequential writer at equal byte rate?
	rate := func(sched string, random bool) float64 {
		k := newKernel(sched, o, nil)
		defer k.Env.Close()
		limit(k, "b", 10<<20)
		fb := k.FS.MkFileContiguous("/b", 2<<30)
		b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.Account = "b"
			if random {
				workload.RandWriter(k, p, pr, fb, 4096, 2<<30)
			} else {
				workload.RunWriter(k, p, pr, fb, 4<<20)
			}
		})
		k.Run(o.dur(3 * time.Second))
		return measure(k, o.dur(10*time.Second), b)[0]
	}

	// Reordering probe: with a big buffered backlog from B, can A's tiny
	// fsync finish fast? (Block level cannot: journal ordering.)
	reorders := func(sched string) float64 {
		k := newKernel(sched, o, nil)
		defer k.Env.Close()
		fa := k.FS.MkFileContiguous("/a", 64<<20)
		fb := k.FS.MkFileContiguous("/b", 2<<30)
		a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.FsyncDeadline = 100 * time.Millisecond
			workload.FsyncAppender(k, p, pr, fa, 4096)
		})
		k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.FsyncDeadline = time.Second
			workload.RandWriteFsync(k, p, pr, fb, 4096, 2<<30, 512)
		})
		k.Run(o.dur(30 * time.Second))
		return bool2f(a.Fsyncs.Percentile(99) < 500*time.Millisecond)
	}
	// Each probe machine is one cell. The cause mapping and reordering
	// probes return 1 for yes; the cost probes return the writer's MB/s.
	res := runCells(o, "table1", []cell[float64]{
		{"probe=cause sched=cfq", func() float64 { return causeMapped("cfq", false) }},
		{"probe=cause sched=afq", func() float64 { return causeMapped("afq", true) }},
		{"probe=cost sched=scs-token io=seq", func() float64 { return rate("scs-token", false) }},
		{"probe=cost sched=scs-token io=rand", func() float64 { return rate("scs-token", true) }},
		{"probe=cost sched=split-token io=seq", func() float64 { return rate("split-token", false) }},
		{"probe=cost sched=split-token io=rand", func() float64 { return rate("split-token", true) }},
		{"probe=reorder sched=block-deadline", func() float64 { return reorders("block-deadline") }},
		{"probe=reorder sched=split-deadline", func() float64 { return reorders("split-deadline") }},
	})
	m := map[string]float64{
		"block_cause_mapping": res[0],
		"split_cause_mapping": res[1],
		// Random writes must be charged much more per byte.
		"scs_cost_estimation":   bool2f(res[3] < res[2]/4),
		"split_cost_estimation": bool2f(res[5] < res[4]/4),
		"block_reordering":      res[6],
		"split_reordering":      res[7],
	}
	mark := func(metric string) string {
		if m[metric] == 1 {
			return "yes"
		}
		return "NO"
	}
	return &Table{
		ID:     "table1",
		Title:  "Table 1: framework properties (probed)",
		Header: []string{"property", "block (CFQ)", "syscall (SCS)", "split (AFQ/Split-Token)"},
		Rows: [][]string{
			{"cause mapping", mark("block_cause_mapping"), "yes (caller known)", mark("split_cause_mapping")},
			{"cost estimation", "yes (below cache)", mark("scs_cost_estimation"), mark("split_cost_estimation")},
			{"reordering", mark("block_reordering"), "yes (above journal)", mark("split_reordering")},
		},
		Notes:   "Probed dynamically; paper Table 1: block = {no, yes, no}, syscall = {yes, no, yes}, split = {yes, yes, yes}.",
		Metrics: m,
	}
}

// Table2 lists the split framework's hooks (paper Table 2).
func Table2(o Options) *Table {
	return &Table{
		ID:     "table2",
		Title:  "Table 2: split hooks",
		Header: []string{"level", "hook", "origin"},
		Rows: [][]string{
			{"system call", "write entry/exit", "SCS"},
			{"system call", "fsync entry/exit", "new"},
			{"system call", "creat entry/exit", "new"},
			{"system call", "mkdir entry/exit", "new"},
			{"memory", "buffer-dirty (with previous causes)", "new"},
			{"memory", "buffer-free", "new"},
			{"block", "request added", "block framework"},
			{"block", "request dispatched", "block framework"},
			{"block", "request completed", "block framework"},
		},
		Notes:   "Reads are deliberately NOT intercepted at the system-call level: nothing entangles reads, so scheduling them below the cache is preferable.",
		Metrics: map[string]float64{"hooks": 9},
	}
}

// Table3 shows the deadline settings used by Fig 12 (paper Table 3).
func Table3(o Options) *Table {
	return &Table{
		ID:     "table3",
		Title:  "Table 3: deadline settings for the fsync-isolation experiment",
		Header: []string{"scheduler", "process", "block read", "block write", "fsync"},
		Rows: [][]string{
			{"block-deadline", "A (small)", "100ms", "20ms", "-"},
			{"block-deadline", "B (big)", "100ms", "20ms", "-"},
			{"split-deadline", "A (small)", "100ms", "-", "100ms"},
			{"split-deadline", "B (big)", "100ms", "-", "1s"},
		},
		Notes:   "Block-Deadline can only deadline block requests; Split-Deadline deadlines the fsyncs themselves.",
		Metrics: map[string]float64{"a_fsync_deadline_ms": 100, "b_fsync_deadline_ms": 1000},
	}
}
