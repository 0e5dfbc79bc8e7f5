package exp

import (
	"fmt"
	"time"

	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/sched/stoken"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// ablPair dispatches an on/off ablation as two sweep cells (one kernel
// each) and returns their scalar results as (on, off).
func ablPair(o Options, experiment, knob string, run func(on bool) float64) (on, off float64) {
	res := runCells(o, experiment, []cell[float64]{
		{knob + "=on", func() float64 { return run(true) }},
		{knob + "=off", func() float64 { return run(false) }},
	})
	return res[0], res[1]
}

// AblPromptCharge quantifies the value of memory-level prompt charging in
// Split-Token: without it, a throttled process's opening burst is admitted
// at memory speed until block-level revisions catch up.
func AblPromptCharge(o Options) *Table {
	burstMB := func(prompt bool) float64 {
		factory := stoken.Factory
		if !prompt {
			factory = func(env *sim.Env) core.Scheduler {
				s := stoken.New(env).(*stoken.Sched)
				s.PrelimRandBytes = 0 // neuter the memory-level estimate
				return s
			}
		}
		k := newKernelOf("split-token", factory, o, nil)
		defer k.Env.Close()
		limit(k, "b", 1<<20)
		fb := k.FS.MkFileContiguous("/b", 2<<30)
		bp := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.Account = "b"
			workload.RandWriter(k, p, pr, fb, 4096, 2<<30)
		})
		k.Run(o.dur(2 * time.Second))
		return float64(bp.BytesWritten.Total()) / (1 << 20)
	}
	with, without := ablPair(o, "abl-prompt", "prompt", burstMB)
	t := &Table{
		ID:     "abl-prompt",
		Title:  "Ablation: memory-level prompt charging (Split-Token burst containment)",
		Header: []string{"accounting", "B bytes admitted in burst (MB)"},
		Rows: [][]string{
			{"prompt (memory+block)", fmt.Sprintf("%.2f", with)},
			{"block-level only", fmt.Sprintf("%.2f", without)},
		},
		Notes:   "Without the buffer-dirty estimate, the write buffer absorbs an unbounded burst before any charge lands (the Fig 1 failure mode).",
		Metrics: map[string]float64{"burst_mb_prompt": with, "burst_mb_block_only": without},
	}
	if with > 0 {
		t.Metrics["overshoot_factor"] = without / with
	}
	return t
}

// AblXFSFull flips full integration on for xfssim: with the journal proxy
// tagged, the Fig 17 metadata antagonist is throttled like on ext4.
func AblXFSFull(o Options) *Table {
	rate := func(full bool) float64 {
		fcfg := fs.XFSConfig()
		fcfg.TagJournalProxy = full
		k := newKernel("split-token", o, func(opt *core.Options) { opt.FSConfig = &fcfg })
		defer k.Env.Close()
		limit(k, "b", 1<<20)
		bp := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.Account = "b"
			workload.Creator(k, p, pr, "/meta", 0)
		})
		d := o.dur(20 * time.Second)
		k.Run(d)
		return float64(bp.Fsyncs.Count()) / d.Seconds()
	}
	full, partial := ablPair(o, "abl-xfsfull", "full", rate)
	t := &Table{
		ID:     "abl-xfsfull",
		Title:  "Ablation: XFS partial vs full split integration (metadata antagonist)",
		Header: []string{"integration", "B creates/s"},
		Rows: [][]string{
			{"partial (journal untagged)", fmt.Sprintf("%.2f", partial)},
			{"full (journal proxy tagged)", fmt.Sprintf("%.2f", full)},
		},
		Notes:   "Tagging the journal task as a proxy is all it takes to close the Fig 17 gap.",
		Metrics: map[string]float64{"creates_partial": partial, "creates_full": full},
	}
	return t
}

// AblCOWGC demonstrates the copy-on-write extension: the cleaner's
// relocation I/O is proxied to the tenant whose overwrite churn created the
// garbage, so Split-Token keeps a neighbor isolated even though the tenant
// itself issues almost no direct disk I/O.
func AblCOWGC(o Options) *Table {
	return runCells(o, "abl-cowgc", []cell[*Table]{{"sched=split-token fs=cow", func() *Table {
		fcfg := fs.COWConfig()
		fcfg.GCThresholdBlocks = 32 // cleaner engages quickly at bench scale
		k := newKernel("split-token", o, func(opt *core.Options) { opt.FSConfig = &fcfg })
		defer k.Env.Close()
		limit(k, "b", 2<<20)
		fa := k.FS.MkFileContiguous("/a", 4<<30)
		a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
			workload.SeqReader(k, p, pr, fa, 1<<20)
		})
		// The churn file preexists (setup is not billed); every overwrite
		// then remaps and leaves garbage behind.
		fb := k.FS.MkFileContiguous("/churn", 64<<20)
		b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.Account = "b"
			workload.RandWriteFsync(k, p, pr, fb, 4096, 64<<20, 8)
		})
		k.Run(o.dur(5 * time.Second))
		tps := measure(k, o.dur(30*time.Second), a, b)
		garbage, reloc := k.FS.GarbageBlocks(), k.FS.GCRelocatedBlocks()
		return &Table{
			ID:     "abl-cowgc",
			Title:  "Ablation: copy-on-write GC as an I/O proxy (Split-Token on cowsim)",
			Header: []string{"process", "MB/s", "note"},
			Rows: [][]string{
				{"A (unthrottled reader)", fmt.Sprintf("%.1f", tps[0]), "isolated from B's churn + GC"},
				{"B (churn, 2 MB/s cap)", fmt.Sprintf("%.3f", tps[1]), "billed for data, commits, and relocation"},
			},
			Notes: fmt.Sprintf("garbage=%d blocks, GC relocated=%d blocks; relocation I/O carries B's cause tag",
				garbage, reloc),
			Metrics: map[string]float64{
				"a_mbps":         tps[0],
				"b_mbps":         tps[1],
				"gc_relocated":   float64(reloc),
				"garbage_blocks": float64(garbage),
			},
		}
	}}})[0]
}

func init() {
	All = append(All,
		Experiment{"abl-prompt", "Ablation: prompt vs block-only charging", AblPromptCharge},
		Experiment{"abl-xfsfull", "Ablation: XFS full integration", AblXFSFull},
		Experiment{"abl-cowgc", "Ablation: COW garbage collection billed via proxy", AblCOWGC},
	)
}
