package stoken

import (
	"fmt"
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/metrics"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// bWorkload names a Fig 6/13 antagonist pattern.
type bWorkload struct {
	name string
	run  func(k *core.Kernel, p *sim.Proc, pr *vfs.Process)
}

func patterns(k *core.Kernel) []bWorkload {
	fb := schedtest.BigFile(k, "/b", 4<<30)
	return []bWorkload{
		{"read-seq", func(k *core.Kernel, p *sim.Proc, pr *vfs.Process) {
			workload.RunReader(k, p, pr, fb, 1<<20)
		}},
		{"read-rand", func(k *core.Kernel, p *sim.Proc, pr *vfs.Process) {
			workload.RandReader(k, p, pr, fb, 4096)
		}},
		{"write-seq", func(k *core.Kernel, p *sim.Proc, pr *vfs.Process) {
			workload.RunWriter(k, p, pr, fb, 1<<20)
		}},
		{"write-rand", func(k *core.Kernel, p *sim.Proc, pr *vfs.Process) {
			workload.RandWriter(k, p, pr, fb, 4096, 4<<30)
		}},
	}
}

// runIsolation returns A's throughput with antagonist i active and B
// throttled to 10 MB/s normalized.
func runIsolation(t *testing.T, pick int, mut func(*core.Options)) float64 {
	k := schedtest.Kernel(t, Factory, mut)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 10<<20, 10<<20)
	fa := schedtest.BigFile(k, "/a", 4<<30)
	pats := patterns(k)
	a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.SeqReader(k, p, pr, fa, 1<<20)
	})
	k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		pats[pick].run(k, p, pr)
	})
	schedtest.Warm(k, 3*time.Second)
	return schedtest.Throughputs(k, 20*time.Second, a)[0]
}

// TestIsolationAcrossPatterns (Fig 13): A's throughput barely depends on
// B's access pattern because costs are normalized at the block level.
func TestIsolationAcrossPatterns(t *testing.T) {
	var tps []float64
	for i := 0; i < 4; i++ {
		tp := runIsolation(t, i, nil)
		tps = append(tps, tp)
	}
	mean := metrics.Mean(tps)
	sd := metrics.StdDev(tps)
	if mean < 60 {
		t.Fatalf("A too slow overall: %v", tps)
	}
	if sd/mean > 0.15 {
		t.Fatalf("isolation failed: A = %v (sd/mean = %.2f)", tps, sd/mean)
	}
}

// TestXFSDataIsolation (Fig 16): partial integration suffices for
// data-intensive workloads.
func TestXFSDataIsolation(t *testing.T) {
	var tps []float64
	for i := 0; i < 4; i++ {
		tp := runIsolation(t, i, func(o *core.Options) { o.FS = core.XFS })
		tps = append(tps, tp)
	}
	mean := metrics.Mean(tps)
	sd := metrics.StdDev(tps)
	if mean < 60 || sd/mean > 0.2 {
		t.Fatalf("XFS data isolation failed: %v", tps)
	}
}

// TestOverwritesFree (Fig 14 write-mem): overwriting dirty buffers causes
// no disk work and is not charged, so a 1 MB/s-capped process overwrites at
// memory speed — the paper reports 837x over SCS.
func TestOverwritesFree(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 1<<20, 1<<20)
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f, _ := k.VFS.Create(p, pr, "/m")
		workload.MemWriter(k, p, pr, f, 4<<20)
	})
	schedtest.Warm(k, 2*time.Second)
	tp := schedtest.Throughputs(k, 10*time.Second, b)
	if tp[0] < 100 {
		t.Fatalf("split-token throttles overwrites: %.1f MB/s", tp[0])
	}
}

// TestCachedReadsFree (Fig 14 read-mem): system-call reads are never
// intercepted, so cache hits run at memory speed.
func TestCachedReadsFree(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 1<<20, 1<<20)
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f := k.FS.MkFileContiguous("/small", 4<<20)
		k.VFS.Read(p, pr, f, 0, 4<<20)
		workload.MemReader(k, p, pr, f)
	})
	schedtest.Warm(k, 6*time.Second)
	tp := schedtest.Throughputs(k, 5*time.Second, b)
	if tp[0] < 500 {
		t.Fatalf("cached reads slow under split-token: %.1f MB/s", tp[0])
	}
}

// TestRandomIOPSThrottledHard: 10 MB/s of normalized budget affords only a
// handful of random IOPS — the undercharging SCS suffers is gone.
func TestRandomIOPSThrottledHard(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 10<<20, 10<<20)
	fb := schedtest.BigFile(k, "/b", 4<<30)
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		workload.RandReader(k, p, pr, fb, 4096)
	})
	schedtest.Warm(k, 3*time.Second)
	tp := schedtest.Throughputs(k, 20*time.Second, b)
	// 10 MB/s normalized on a ~128 MB/s disk is ~8% of disk time: ~6 IOPS
	// = 0.025 MB/s. Anything near raw 10 MB/s means normalization failed.
	if tp[0] > 1 {
		t.Fatalf("random reader got %.2f MB/s; cost normalization failed", tp[0])
	}
}

// TestMetadataChargedExt4NotXFS (Fig 17): with ext4's full integration, a
// create+fsync antagonist is throttled via journal attribution; with
// partial XFS integration it is not.
func TestMetadataChargedExt4NotXFS(t *testing.T) {
	createRate := func(fsKind core.FSKind) float64 {
		k := schedtest.Kernel(t, Factory, func(o *core.Options) { o.FS = fsKind })
		s := k.Sched.(*Sched)
		s.SetLimit("b", 64<<10, 64<<10) // tight cap: 64 KB/s normalized
		b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
			pr.Ctx.Account = "b"
			workload.Creator(k, p, pr, "/meta", 0)
		})
		schedtest.Warm(k, 2*time.Second)
		start := b.Fsyncs.Count()
		k.Run(20 * time.Second)
		return float64(b.Fsyncs.Count()-start) / 20
	}
	ext4 := createRate(core.Ext4)
	xfs := createRate(core.XFS)
	if xfs < 3*ext4 {
		t.Fatalf("metadata throttling: ext4=%.1f/s xfs=%.1f/s, want xfs >> ext4", ext4, xfs)
	}
}

// TestIdleClassWriter (Fig 1's split fix): an idle-class burst cannot
// pollute the system while a reader is active.
func TestIdleClassWriter(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	fa := schedtest.BigFile(k, "/a", 4<<30)
	fb := schedtest.BigFile(k, "/b", 1<<30)
	a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.SeqReader(k, p, pr, fa, 1<<20)
	})
	k.Spawn("B", 7, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Class = block.ClassIdle
		p.Sleep(2 * time.Second)
		workload.WriteBurst(k, p, pr, fb, 4096, 64<<20)
	})
	schedtest.Warm(k, time.Second)
	tp := schedtest.Throughputs(k, 20*time.Second, a)
	if tp[0] < 80 {
		t.Fatalf("reader degraded to %.1f MB/s by idle burst", tp[0])
	}
}

// TestAccountingRevision: preliminary charges are revised at the block
// level (both stats move).
func TestAccountingRevision(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 10<<20, 10<<20)
	k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f, _ := k.VFS.Create(p, pr, "/f")
		k.VFS.Write(p, pr, f, 0, 1<<20)
		k.VFS.Fsync(p, pr, f)
	})
	k.Run(30 * time.Second)
	if s.PrelimCharged() <= 0 {
		t.Fatal("no preliminary charges")
	}
	if s.RevisedCharged() <= 0 {
		t.Fatal("no block-level revision")
	}
	checkNoPrelim(t, k, s)
}

// gauge reads the named gauge of k's registry now.
func gauge(k *core.Kernel, name string) (v float64, ok bool) {
	k.Metrics.Visit(func(n string, x float64) {
		if n == name {
			v, ok = x, true
		}
	})
	return v, ok
}

// checkNoPrelim fails unless every preliminary charge has been revised or
// refunded and no per-chunk charge record remains.
func checkNoPrelim(t *testing.T, k *core.Kernel, s *Sched) {
	t.Helper()
	if n, ok := gauge(k, "sched.prelim_charges"); !ok || n != 0 {
		t.Fatalf("sched.prelim_charges = %v (registered %v), want 0", n, ok)
	}
	if len(s.prelim) != 0 {
		t.Fatalf("charge records remain for %d chunks", len(s.prelim))
	}
}

// TestDeletedBufferRefunded: work that vanishes before writeback is
// refunded via the buffer-free hook.
func TestDeletedBufferRefunded(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 1<<20, 8<<20)
	k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f, _ := k.VFS.Create(p, pr, "/tmp")
		k.VFS.Write(p, pr, f, 0, 4<<20)
		if n, _ := gauge(k, "sched.prelim_charges"); n == 0 {
			t.Error("no preliminary charges outstanding before unlink")
		}
		before := s.Tokens("b")
		k.VFS.Unlink(p, pr, "/tmp")
		after := s.Tokens("b")
		if after <= before {
			t.Errorf("no refund on delete: %v -> %v", before, after)
		}
	})
	k.Run(time.Second)
	checkNoPrelim(t, k, s)
}

func TestNamesAndLimits(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	if s.Name() != "split-token" {
		t.Fatalf("name = %s", s.Name())
	}
	if s.Tokens("missing") != 0 {
		t.Fatal("missing account should report 0 tokens")
	}
	// A repeated SetLimit replaces the bucket without registering the
	// account's gauge again (a duplicate name panics).
	s.SetLimit("b", 1<<20, 1<<20)
	s.SetLimit("b", 2<<20, 2<<20)
	if v, ok := gauge(k, "sched.tokens.b"); !ok || v != 2<<20 {
		t.Fatalf("sched.tokens.b = %v (registered %v), want the replacing bucket's %d", v, ok, 2<<20)
	}
	_ = fmt.Sprint() // keep fmt
}

// TestCOWGarbageCollectionBilled: on a copy-on-write file system, the
// background cleaner's relocation I/O is proxied to the tenant whose
// overwrites created the garbage, so a churning tenant is throttled for its
// GC debt and a sequential reader stays isolated.
func TestCOWGarbageCollectionBilled(t *testing.T) {
	k := schedtest.Kernel(t, Factory, func(o *core.Options) { o.FS = core.COW })
	s := k.Sched.(*Sched)
	s.SetLimit("b", 2<<20, 2<<20)
	fa := schedtest.BigFile(k, "/a", 4<<30)
	a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.SeqReader(k, p, pr, fa, 1<<20)
	})
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f, err := k.VFS.Create(p, pr, "/churn")
		if err != nil {
			return
		}
		k.VFS.Write(p, pr, f, 0, 64<<20)
		k.VFS.Fsync(p, pr, f)
		workload.RandWriteFsync(k, p, pr, f, 4096, 64<<20, 8)
	})
	schedtest.Warm(k, 5*time.Second)
	tp := schedtest.Throughputs(k, 30*time.Second, a, b)
	if tp[0] < 60 {
		t.Fatalf("reader degraded to %.1f MB/s under COW churn", tp[0])
	}
	if gc := k.FS.GCRelocatedBlocks(); gc == 0 {
		t.Log("note: GC did not trigger in this window (garbage below threshold)")
	}
	// B pays for data + journal + GC: bounded well below an unthrottled run.
	if tp[1] > 10 {
		t.Fatalf("churning tenant at %.1f MB/s evaded its 2 MB/s cap", tp[1])
	}
}
