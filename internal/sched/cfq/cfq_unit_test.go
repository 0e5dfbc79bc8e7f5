package cfq

import (
	"testing"
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/sim"
)

func newUnit(t *testing.T) (*sim.Env, *Sched) {
	t.Helper()
	env := sim.NewEnv(1)
	t.Cleanup(env.Close)
	return env, New(env).(*Sched)
}

func rd(pid causes.PID, prio int, lba int64) *block.Request {
	return &block.Request{Op: device.Read, LBA: lba, Blocks: 1, Submitter: pid, Prio: prio, Sync: true}
}

func TestQueuePerSubmitter(t *testing.T) {
	_, s := newUnit(t)
	s.Add(rd(10, 4, 1))
	s.Add(rd(10, 4, 2))
	s.Add(rd(11, 4, 3))
	if s.QueuedFor(10) != 2 || s.QueuedFor(11) != 1 {
		t.Fatalf("queues = %d/%d", s.QueuedFor(10), s.QueuedFor(11))
	}
}

func TestSliceContinuity(t *testing.T) {
	// Within a slice, the current submitter's queued requests are served
	// back-to-back even if another queue has lower LBAs.
	_, s := newUnit(t)
	s.Add(rd(10, 4, 100))
	s.Add(rd(10, 4, 101))
	s.Add(rd(11, 4, 1))
	first := s.Next(0)
	if first.Submitter != 10 && first.Submitter != 11 {
		t.Fatalf("unexpected first %v", first)
	}
	cur := first.Submitter
	second := s.Next(0)
	if second.Submitter != cur {
		t.Fatalf("slice broken: served %d then %d", cur, second.Submitter)
	}
}

func TestSliceExpiryRotates(t *testing.T) {
	_, s := newUnit(t)
	s.BaseSlice = 10 * time.Millisecond
	s.Add(rd(10, 4, 1))
	s.Add(rd(10, 4, 2))
	s.Add(rd(11, 4, 100))
	r1 := s.Next(0)
	r1.Service = 20 * time.Millisecond // exceeds the slice
	s.Completed(r1)
	r2 := s.Next(sim.Time(20 * time.Millisecond))
	if r2.Submitter == r1.Submitter {
		t.Fatal("slice expiry did not rotate to the other queue")
	}
}

func TestIdleClassYieldsToBE(t *testing.T) {
	_, s := newUnit(t)
	idle := rd(20, 7, 5)
	idle.Class = block.ClassIdle
	s.Add(idle)
	be := rd(10, 4, 50)
	s.Add(be)
	if got := s.Next(0); got != be {
		t.Fatal("BE request should beat idle class")
	}
	if got := s.Next(0); got != idle {
		t.Fatal("idle served once disk is otherwise free")
	}
}

func TestAnticipationWindowHoldsDisk(t *testing.T) {
	env, s := newUnit(t)
	r1 := rd(10, 4, 1)
	s.Add(r1)
	if got := s.Next(0); got != r1 {
		t.Fatal("r1 not served")
	}
	r1.Service = time.Millisecond
	s.Completed(r1) // queue now empty, sync read: idle window armed
	// Another submitter's request arrives inside the window: CFQ waits for
	// the current process instead.
	s.Add(rd(11, 4, 1000))
	if got := s.Next(env.Now()); got != nil {
		t.Fatal("anticipation window did not hold the disk")
	}
	// The current process's next sequential read wins the window.
	r2 := rd(10, 4, 2)
	s.Add(r2)
	if got := s.Next(env.Now()); got == nil || got.Submitter != 10 {
		t.Fatal("continuation not served during window")
	}
}

func TestAnticipationExpires(t *testing.T) {
	env, s := newUnit(t)
	r1 := rd(10, 4, 1)
	s.Add(r1)
	s.Next(0)
	r1.Service = time.Millisecond
	s.Completed(r1)
	other := rd(11, 4, 1000)
	s.Add(other)
	late := env.Now().Add(idleWindow + time.Millisecond)
	if got := s.Next(late); got != other {
		t.Fatal("expired window should release the disk")
	}
}

func TestHigherPriorityLowerPass(t *testing.T) {
	_, s := newUnit(t)
	s.Add(rd(10, 0, 1)) // 8 tickets
	s.Add(rd(11, 7, 2)) // 1 ticket
	served := map[causes.PID]int{}
	for i := 0; i < 90; i++ {
		r := s.Next(sim.Time(time.Duration(i) * 200 * time.Millisecond))
		if r == nil {
			t.Fatal("nothing served")
		}
		served[r.Submitter]++
		r.Service = 10 * time.Millisecond
		s.Completed(r)
		s.Add(rd(r.Submitter, map[causes.PID]int{10: 0, 11: 7}[r.Submitter], r.LBA+10))
	}
	if served[10] < 5*served[11] {
		t.Fatalf("shares %v, want ~8:1", served)
	}
}
