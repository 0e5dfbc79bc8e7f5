package afq

import (
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/ioctx"
	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/vfs"
	"splitio/internal/workload"
)

func TestOwnerOfPrefersCauses(t *testing.T) {
	r := &block.Request{Causes: causes.Of(101, 102), Submitter: 2}
	if got := ownerOf(r); got != 101 {
		t.Fatalf("ownerOf = %d, want first cause", got)
	}
	r2 := &block.Request{Submitter: 7}
	if got := ownerOf(r2); got != 7 {
		t.Fatalf("ownerOf fallback = %d, want submitter", got)
	}
}

// TestTicketsFor checks that a read's priority gives its owner the same
// tickets as the owner's context does at the gate (ioctx.TicketsFor), also
// outside 0..7, so the stride weight never flips between the two paths.
func TestTicketsFor(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	for prio, want := range map[int]int{-1: 8, 0: 8, 4: 4, 7: 1, 9: 1} {
		pid := causes.PID(100 + prio)
		s.Add(&block.Request{Op: device.Read, LBA: 1, Blocks: 1, Causes: causes.Of(pid), Prio: prio})
		if got := s.st.Tickets(int64(pid)); got != want {
			t.Fatalf("tickets(prio=%d) = %d, want %d", prio, got, want)
		}
		if ctx := (&ioctx.Ctx{Prio: prio}); ctx.Tickets() != want {
			t.Fatalf("Ctx.Tickets(prio=%d) = %d, want %d", prio, ctx.Tickets(), want)
		}
	}
}

func TestWritesDispatchImmediately(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	w := &block.Request{Op: device.Write, LBA: 1, Blocks: 1}
	rd := &block.Request{Op: device.Read, LBA: 2, Blocks: 1, Causes: causes.Of(100)}
	s.Add(rd)
	s.Add(w)
	if got := s.Next(0); got != w {
		t.Fatal("write not dispatched before queued read")
	}
	if got := s.Next(0); got != rd {
		t.Fatal("read not dispatched after writes drained")
	}
}

func TestReadQueuesPerProcess(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	r1 := &block.Request{Op: device.Read, LBA: 1, Blocks: 1, Causes: causes.Of(100), Prio: 0}
	r2 := &block.Request{Op: device.Read, LBA: 2, Blocks: 1, Causes: causes.Of(101), Prio: 7}
	s.Add(r1)
	s.Add(r2)
	// Equal passes: lowest pid wins the tie; after charging 100 heavily,
	// 101 must win despite its lower priority.
	if got := s.Next(0); got != r1 {
		t.Fatal("tie-break should pick lower pid")
	}
	s.st.Charge(100, 10)
	if got := s.Next(0); got != r2 {
		t.Fatal("higher-pass process served before lower")
	}
}

func TestCompletedChargesSplitAcrossCauses(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	s := New(env).(*Sched)
	s.st.Ensure(100, 1)
	s.st.Ensure(101, 1)
	r := &block.Request{
		Op: device.Write, LBA: 1, Blocks: 1,
		Causes:  causes.Of(100, 101),
		Service: 10 * time.Millisecond,
	}
	s.Completed(r)
	if p := s.Pass(100); p != 0.005 {
		t.Fatalf("pass(100) = %v, want 0.005 (half of 10ms)", p)
	}
	if s.Pass(100) != s.Pass(101) {
		t.Fatal("shared cost not split evenly")
	}
}

func TestCreatsBatchedAndPaced(t *testing.T) {
	// Two creators share journal commits (transaction batching), so their
	// rates equalize — and the rotational cost of each commit bounds the
	// combined rate to something physical (hundreds/s, not tens of
	// thousands).
	k := schedtest.Kernel(t, Factory, nil)
	hi := k.Spawn("hi", 0, func(p *sim.Proc, pr *vfs.Process) {
		workload.Creator(k, p, pr, "/hi", 0)
	})
	lo := k.Spawn("lo", 7, func(p *sim.Proc, pr *vfs.Process) {
		workload.Creator(k, p, pr, "/lo", 0)
	})
	k.Run(30 * time.Second)
	hiN, loN := hi.Fsyncs.Count(), lo.Fsyncs.Count()
	if hiN == 0 || loN == 0 {
		t.Fatalf("creators starved: hi=%d lo=%d", hiN, loN)
	}
	total := float64(hiN+loN) / 30
	if total > 2000 {
		t.Fatalf("create+fsync rate %.0f/s is unphysical for an HDD", total)
	}
	if hiN < loN/2 || loN < hiN/2 {
		t.Fatalf("batched creators should be near-equal: hi=%d lo=%d", hiN, loN)
	}
}

func TestDrainableIdleGating(t *testing.T) {
	k := schedtest.Kernel(t, Factory, nil)
	s := k.Sched.(*Sched)
	idle := k.VFS.NewProcess("idle", 7)
	idle.Ctx.Class = block.ClassIdle
	be := k.VFS.NewProcess("be", 4)
	// Fresh BE activity blocks idle drain.
	s.lastBEWrite = k.Env.Now()
	if s.drainable(idle.PID()) {
		t.Fatal("idle drainable during BE activity")
	}
	if !s.drainable(be.PID()) {
		t.Fatal("BE process not drainable")
	}
	if !s.drainable(9999) {
		t.Fatal("unknown pid should default to drainable")
	}
}
