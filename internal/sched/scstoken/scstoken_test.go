package scstoken

import (
	"testing"
	"time"

	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

// TestThrottleRateSequential: a throttled sequential writer is held near
// its configured rate (the case SCS gets right).
func TestThrottleRateSequential(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 10<<20, 10<<20)
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f, _ := k.VFS.Create(p, pr, "/b")
		workload.SeqWriter(k, p, pr, f, 1<<20, 8<<30)
	})
	schedtest.Warm(k, 2*time.Second)
	tp := schedtest.Throughputs(k, 20*time.Second, b)
	if tp[0] < 5 || tp[0] > 15 {
		t.Fatalf("throttled writer at %.1f MB/s, want ~10", tp[0])
	}
}

// TestRandomReaderEvadesIsolation reproduces the core SCS failure (Fig 6):
// raw-byte charging lets a throttled random reader consume nearly all disk
// time, collapsing an unthrottled sequential reader.
func TestRandomReaderEvadesIsolation(t *testing.T) {
	baseline := func() float64 {
		k := schedtest.Kernel(t, Factory, nil)
		fa := schedtest.BigFile(k, "/a", 4<<30)
		a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
			workload.SeqReader(k, p, pr, fa, 1<<20)
		})
		schedtest.Warm(k, time.Second)
		return schedtest.Throughputs(k, 10*time.Second, a)[0]
	}()

	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 10<<20, 10<<20)
	fa := schedtest.BigFile(k, "/a", 4<<30)
	fb := schedtest.BigFile(k, "/b", 4<<30)
	a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.SeqReader(k, p, pr, fa, 1<<20)
	})
	k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		workload.RandReader(k, p, pr, fb, 4096)
	})
	schedtest.Warm(k, time.Second)
	tp := schedtest.Throughputs(k, 10*time.Second, a)
	if tp[0] > 0.5*baseline {
		t.Fatalf("SCS should fail isolation: A with random B = %.1f MB/s (alone %.1f)", tp[0], baseline)
	}
}

// TestOverwritesThrottledUnfairly (Fig 14 write-mem): SCS charges buffer
// overwrites like new writes, so a memory-bound writer crawls at the token
// rate even though it causes almost no disk I/O.
func TestOverwritesThrottledUnfairly(t *testing.T) {
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
	if tp[0] > 3 {
		t.Fatalf("SCS should throttle overwrites: B at %.1f MB/s, want ~1", tp[0])
	}
}

// TestCacheHitsNotCharged: reads served from cache pass without token
// charges (SCS's file-system modification), though they still pay the
// per-call logic tax.
func TestCacheHitsNotCharged(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	s.SetLimit("b", 1<<20, 1<<20)
	b := k.Spawn("B", 4, func(p *sim.Proc, pr *vfs.Process) {
		pr.Ctx.Account = "b"
		f := k.FS.MkFileContiguous("/small", 4<<20)
		k.VFS.Read(p, pr, f, 0, 4<<20) // warm the cache (charged once)
		workload.MemReader(k, p, pr, f)
	})
	schedtest.Warm(k, 5*time.Second)
	tp := schedtest.Throughputs(k, 5*time.Second, b)
	if tp[0] < 100 {
		t.Fatalf("cached reads throttled: %.1f MB/s", tp[0])
	}
}

// TestUnthrottledProcessUnaffected: processes without an account are never
// charged or blocked.
func TestUnthrottledProcessUnaffected(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	fa := schedtest.BigFile(k, "/a", 2<<30)
	a := k.Spawn("A", 4, func(p *sim.Proc, pr *vfs.Process) {
		workload.SeqReader(k, p, pr, fa, 1<<20)
	})
	schedtest.Warm(k, time.Second)
	tp := schedtest.Throughputs(k, 5*time.Second, a)
	if tp[0] < 80 {
		t.Fatalf("unthrottled reader at %.1f MB/s", tp[0])
	}
}

func TestTokensAccessor(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	if s.Tokens("nope") != 0 {
		t.Fatal("unknown account should report 0")
	}
	s.SetLimit("x", 100, 50)
	if s.Tokens("x") != 50 {
		t.Fatalf("fresh bucket = %v, want cap", s.Tokens("x"))
	}
	// A repeated SetLimit replaces the bucket without registering the
	// account's gauge again; the inner CFQ publishes its own gauges.
	s.SetLimit("x", 100, 80)
	got := map[string]float64{}
	k.Metrics.Visit(func(name string, v float64) { got[name] = v })
	if v, ok := got["sched.tokens.x"]; !ok || v != 80 {
		t.Errorf("sched.tokens.x = %v (registered %v), want the replacing bucket's 80", v, ok)
	}
	if _, ok := got["sched.queued_be"]; !ok {
		t.Error("inner CFQ publishes no sched.queued_be gauge")
	}
}
