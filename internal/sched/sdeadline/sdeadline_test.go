package sdeadline

import (
	"testing"
	"time"

	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// runFig12 runs the paper's Fig 12 workload (A: 4 KB append+fsync; B: big
// random writes + fsync) under factory and returns A's p99 fsync latency.
func runFig12(t *testing.T, factory core.Factory, bBlocks int, d time.Duration) time.Duration {
	k := schedtest.Kernel(t, factory, nil)
	fa := schedtest.BigFile(k, "/a", 64<<20)
	fb := schedtest.BigFile(k, "/b", 2<<30)
	a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.FsyncDeadline = 100 * time.Millisecond
		pr.Ctx.ReadDeadline = 100 * time.Millisecond
		workload.FsyncAppender(k, p, pr, fa, 4096)
	})
	k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.FsyncDeadline = time.Second
		workload.RandWriteFsync(k, p, pr, fb, 4096, 2<<30, bBlocks)
	})
	k.Run(d)
	if a.Fsyncs.Count() == 0 {
		t.Fatal("A completed no fsyncs")
	}
	return a.Fsyncs.Percentile(99)
}

// TestFsyncLatencyIsolation: A's tail latency stays near its deadline even
// while B checkpoints 2 MB bursts (Fig 12).
func TestFsyncLatencyIsolation(t *testing.T) {
	p99 := runFig12(t, Factory, 512, 60*time.Second)
	if p99 > 400*time.Millisecond {
		t.Fatalf("A's p99 fsync = %v, want near the 100ms deadline", p99)
	}
}

// TestBeatsBlockDeadline: Split-Deadline's tail is far below what the same
// workload suffers under pure entanglement (compared in bdeadline tests).
func TestInsensitiveToBSize(t *testing.T) {
	small := runFig12(t, Factory, 16, 30*time.Second)
	big := runFig12(t, Factory, 512, 30*time.Second)
	if big > 6*small+200*time.Millisecond {
		t.Fatalf("A's p99 scales with B's burst: small=%v big=%v", small, big)
	}
}

// TestBMakesProgress: B is spread out, not starved.
func TestBMakesProgress(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	fb := schedtest.BigFile(k, "/b", 2<<30)
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.FsyncDeadline = time.Second
		workload.RandWriteFsync(k, p, pr, fb, 4096, 2<<30, 256)
	})
	k.Run(30 * time.Second)
	if b.Fsyncs.Count() == 0 {
		t.Fatal("B never completed an fsync")
	}
	if b.BytesWritten.Total() == 0 {
		t.Fatal("B wrote nothing")
	}
}

// TestPdflushVariant: the Split-Pdflush configuration keeps pdflush alive
// and still bounds A's tail (paper §7.1.2 / Fig 19's middle line).
func TestPdflushVariant(t *testing.T) {
	k := schedtest.Kernel(t, PdflushFactory, nil)
	if !k.Cache.PdflushEnabled() {
		t.Fatal("Split-Pdflush should keep pdflush running")
	}
	if k.Sched.Name() != "split-pdflush" {
		t.Fatalf("name = %s", k.Sched.Name())
	}
	p99 := runFig12(t, PdflushFactory, 512, 30*time.Second)
	if p99 > 800*time.Millisecond {
		t.Fatalf("Split-Pdflush p99 = %v, want bounded", p99)
	}
}

// TestFullControlDisablesPdflush: the default takes over writeback.
func TestFullControlDisablesPdflush(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	if k.Cache.PdflushEnabled() {
		t.Fatal("full-control Split-Deadline should disable pdflush")
	}
	if k.VFS.ThrottleWrites {
		t.Fatal("full control should own write throttling")
	}
	// Dirty data still drains (the pacer replaces pdflush).
	k.Spawn("w", 4, func(p *sim.Proc, pr *vfs.Process) {
		f, _ := k.VFS.Create(p, pr, "/f")
		k.VFS.Write(p, pr, f, 0, 8<<20)
	})
	k.Run(30 * time.Second)
	if k.Cache.DirtyPagesCount() != 0 {
		t.Fatalf("pacer left %d dirty pages", k.Cache.DirtyPagesCount())
	}
}

// TestCostModelTracksRandomness: the buffer-dirty hook should classify
// random files as expensive.
func TestCostModelTracksRandomness(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	// Sequential dirties: two chunk runs.
	s.bufferDirty(1, 0, ^uint64(0), 0, causes.None)
	s.bufferDirty(1, 64, 1<<36-1, 0, causes.None)
	// Random dirties: one page per call.
	for i := int64(0); i < 100; i++ {
		idx := (i * 7919) % 100000
		s.bufferDirty(2, idx&^63, 1<<(idx&63), 0, causes.None)
	}
	if s.pageCost(1) >= s.pageCost(2) {
		t.Fatalf("sequential file cost %v should be below random %v", s.pageCost(1), s.pageCost(2))
	}
}
