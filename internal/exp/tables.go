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
	t := &Table{
		ID:     "table1",
		Title:  "Table 1: framework properties (probed)",
		Header: []string{"property", "block (CFQ)", "syscall (SCS)", "split (AFQ/Split-Token)"},
	}
	t.Metrics = map[string]float64{}

	// Cause mapping probe: one buffered writer; does the block-level view
	// attribute its flushed I/O to the writer (vs the writeback task)?
	causeMapped := func(sched string, split bool) bool {
		k := newKernel(sched, o, nil)
		defer k.Env.Close()
		pr := k.Spawn("w", 2, func(p *sim.Proc, pr *vfs.Process) {
			f, err := k.VFS.Create(p, pr, "/f")
			if err != nil {
				return
			}
			k.VFS.Write(p, pr, f, 0, 4<<20)
		})
		seen := false
		k.Block.OnAdd(func(r *block.Request) {
			if r.Op != device.Write || r.Journal {
				return
			}
			if split {
				// Split view: the request's cause tags name the writer.
				if r.Causes.Contains(pr.PID()) {
					seen = true
				}
			} else {
				// Block view: only the submitter is visible; delegated
				// writeback appears as the writeback task, so the writer is
				// mapped only if it submitted the I/O itself.
				if r.Submitter == pr.PID() {
					seen = true
				}
			}
		})
		k.Run(o.dur(30 * time.Second))
		return seen
	}
	blockMaps := causeMapped("cfq", false)
	splitMaps := causeMapped("afq", true)

	// Cost estimation probe: under each token scheduler, is a random
	// writer throttled harder than a sequential writer at equal byte rate?
	costAware := func(sched string) bool {
		rate := func(random bool) float64 {
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
		seq, rnd := rate(false), rate(true)
		return rnd < seq/4 // random must be charged much more per byte
	}
	scsCost := costAware("scs-token")
	splitCost := costAware("split-token")

	// Reordering probe: with a big buffered backlog from B, can A's tiny
	// fsync finish fast? (Block level cannot: journal ordering.)
	reorders := func(sched string) bool {
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
		return a.Fsyncs.Percentile(99) < 500*time.Millisecond
	}
	blockReorders := reorders("block-deadline")
	splitReorders := reorders("split-deadline")

	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	t.Rows = [][]string{
		{"cause mapping", mark(blockMaps), "yes (caller known)", mark(splitMaps)},
		{"cost estimation", "yes (below cache)", mark(scsCost), mark(splitCost)},
		{"reordering", mark(blockReorders), "yes (above journal)", mark(splitReorders)},
	}
	t.Notes = "Probed dynamically; paper Table 1: block = {no, yes, no}, syscall = {yes, no, yes}, split = {yes, yes, yes}."
	bool2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	t.Metrics["block_cause_mapping"] = bool2f(blockMaps)
	t.Metrics["split_cause_mapping"] = bool2f(splitMaps)
	t.Metrics["scs_cost_estimation"] = bool2f(scsCost)
	t.Metrics["split_cost_estimation"] = bool2f(splitCost)
	t.Metrics["block_reordering"] = bool2f(blockReorders)
	t.Metrics["split_reordering"] = bool2f(splitReorders)
	return t
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
