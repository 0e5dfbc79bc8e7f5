// WaitQueue edge cases the converted daemons depend on: the exact-boundary
// race between a timeout and a same-instant signal (seq order decides, and
// process and continuation waiters must agree), killing a waiter that is
// parked mid-queue (its dead entry consumes one signal harmlessly and
// never corrupts FIFO order), the golden wake order of mixed
// process/continuation waiters woken at a single virtual instant, the
// allocation-free park and wake-up of a handler waiter, and the FIFO the
// queue keeps its waiters in.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestWaitTimeoutExactBoundary drives both waiter kinds through both
// outcomes of a signal landing exactly at the timeout instant. Events at
// equal timestamps run in scheduling (seq) order, so whichever of the
// signal event and the timer event was scheduled first wins — and a
// process waiter and a continuation waiter must resolve the race the same
// way, at the same virtual time.
func TestWaitTimeoutExactBoundary(t *testing.T) {
	const d = 5 * time.Millisecond
	type outcome struct {
		sig bool
		at  Time
	}
	run := func(kind string, signalFirst bool) outcome {
		e := NewEnv(1)
		defer e.Close()
		q := NewWaitQueue(e)
		var got outcome
		record := func(sig bool) { got = outcome{sig: sig, at: e.Now()} }
		if signalFirst {
			// The signal event is scheduled before the waiter arms its
			// timer, so at t=d its seq is lower and it runs first.
			e.Schedule(d, q.Signal)
			switch kind {
			case "fn":
				q.WaitTimeoutFn(d, record)
			case "proc":
				e.Go("w", func(p *Proc) { record(q.WaitTimeout(p, d)) })
			}
		} else {
			// The timer is armed first; the signal event scheduled at the
			// same instant has a higher seq, fires second, and finds an
			// empty queue.
			switch kind {
			case "fn":
				q.WaitTimeoutFn(d, record)
				e.Schedule(d, q.Signal)
			case "proc":
				e.Go("w", func(p *Proc) { record(q.WaitTimeout(p, d)) })
				// Runs after the startup event, so the proc has already
				// armed its timer when the signal is scheduled.
				e.Schedule(0, func() { e.Schedule(d, q.Signal) })
			}
		}
		e.RunAll()
		if q.Len() != 0 {
			t.Errorf("%s/signalFirst=%v: %d waiters left in queue", kind, signalFirst, q.Len())
		}
		return got
	}
	for _, signalFirst := range []bool{true, false} {
		fn := run("fn", signalFirst)
		proc := run("proc", signalFirst)
		if fn != proc {
			t.Errorf("signalFirst=%v: waiter kinds disagree: fn=%+v proc=%+v", signalFirst, fn, proc)
		}
		if fn.sig != signalFirst {
			t.Errorf("signalFirst=%v: woke with sig=%v, want %v", signalFirst, fn.sig, signalFirst)
		}
		if want := Time(d); fn.at != want {
			t.Errorf("signalFirst=%v: woke at %d, want exactly %d", signalFirst, fn.at, want)
		}
	}
}

// TestSameInstantFIFOWakeOrder interleaves process and continuation
// waiters in one queue and broadcasts at a single instant: every waiter
// must wake at that instant, in exact enqueue order, regardless of kind.
// The golden order is what makes the proc->handler daemon conversions
// schedule-preserving when several daemons block on one queue.
func TestSameInstantFIFOWakeOrder(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	q := NewWaitQueue(e)
	var woke []string
	log := func(name string) { woke = append(woke, fmt.Sprintf("%s@%d", name, e.Now())) }
	// Enqueue order is event order at t=0: p1, f1, p2, f2.
	e.Go("p1", func(p *Proc) { q.Wait(p); log("p1") })
	e.Schedule(0, func() {
		q.WaitFn(func(sig bool) {
			if !sig {
				t.Errorf("f1 woke with sig=false on Broadcast")
			}
			log("f1")
		})
	})
	e.Go("p2", func(p *Proc) { q.Wait(p); log("p2") })
	e.Schedule(0, func() {
		q.WaitFn(func(sig bool) {
			if !sig {
				t.Errorf("f2 woke with sig=false on Broadcast")
			}
			log("f2")
		})
	})
	e.Run(0)
	if q.Len() != 4 {
		t.Fatalf("%d waiters parked, want 4", q.Len())
	}
	e.Schedule(time.Millisecond, q.Broadcast)
	e.RunAll()
	at := Time(time.Millisecond)
	want := []string{
		fmt.Sprintf("p1@%d", at),
		fmt.Sprintf("f1@%d", at),
		fmt.Sprintf("p2@%d", at),
		fmt.Sprintf("f2@%d", at),
	}
	if len(woke) != len(want) {
		t.Fatalf("wake log %v, want %v", woke, want)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Errorf("wake %d = %q, want %q (FIFO order violated)", i, woke[i], want[i])
		}
	}
}

// TestCompletionSameInstantFIFOWakeOrder is the Completion counterpart of
// TestSameInstantFIFOWakeOrder: process Waiters and WaitFn continuations
// registered in interleaved order all wake at the completion instant, in
// registration order. A Wait on a completion that is already done returns
// without yielding: no handoff, no time passes.
func TestCompletionSameInstantFIFOWakeOrder(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	c := NewCompletion(e)
	var woke []string
	log := func(name string) { woke = append(woke, fmt.Sprintf("%s@%d", name, e.Now())) }
	// Registration order is event order at t=0: p1, f1, p2, f2.
	e.Go("p1", func(p *Proc) { c.Wait(p); log("p1") })
	e.Schedule(0, func() { c.WaitFn(func() { log("f1") }) })
	e.Go("p2", func(p *Proc) { c.Wait(p); log("p2") })
	e.Schedule(0, func() { c.WaitFn(func() { log("f2") }) })
	e.Run(0)
	if len(woke) != 0 {
		t.Fatalf("woke before Complete: %v", woke)
	}
	e.Schedule(time.Millisecond, c.Complete)
	e.RunAll()
	at := Time(time.Millisecond)
	want := []string{
		fmt.Sprintf("p1@%d", at),
		fmt.Sprintf("f1@%d", at),
		fmt.Sprintf("p2@%d", at),
		fmt.Sprintf("f2@%d", at),
	}
	if fmt.Sprint(woke) != fmt.Sprint(want) {
		t.Fatalf("wake log %v, want %v (FIFO order violated)", woke, want)
	}

	var switches int64
	var before, after Time
	e.Go("late", func(p *Proc) {
		before, switches = p.Now(), e.Stats().Switches
		c.Wait(p)
		after = p.Now()
		if got := e.Stats().Switches; got != switches {
			t.Errorf("Wait on a done Completion switched: %d -> %d", switches, got)
		}
	})
	e.RunAll()
	if after != before {
		t.Errorf("Wait on a done Completion advanced time: %v -> %v", before, after)
	}
}

// TestWaitFnSignalZeroAllocs asserts that a warmed handler parks on a
// WaitQueue and is woken without allocating: waiters are kept by value, and
// every wake event runs the queue's one prebuilt fire handler.
func TestWaitFnSignalZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEnv(1)
	defer e.Close()
	q := NewWaitQueue(e)
	woken := 0
	fn := func(bool) { woken++ }
	cycle := func() {
		for i := 0; i < 4; i++ {
			q.WaitFn(fn)
		}
		q.Signal()
		q.Broadcast()
		e.RunAll()
	}
	cycle() // warm the queue's slices, the event pool and the heap slice
	allocs := testing.AllocsPerRun(1000, cycle)
	if allocs != 0 {
		t.Fatalf("a warmed WaitFn+Signal cycle allocated %.2f objects, want 0", allocs)
	}
	// One warm cycle here, one inside AllocsPerRun, then the 1000 measured.
	if want := 4 * 1002; woken != want {
		t.Fatalf("woken %d times, want %d", woken, want)
	}
}

// TestFifoMatchesSlice drives the waiter FIFO with a random mix of push,
// pop and mid-queue remove, long enough to exercise both compaction and
// growth, and checks it against a plain slice after every step.
func TestFifoMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f fifo[int]
	var ref []int
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(ref) == 0:
			f.push(step)
			ref = append(ref, step)
		case r < 9:
			if got := f.pop(); got != ref[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, got, ref[0])
			}
			ref = ref[1:]
		default:
			i := rng.Intn(len(ref))
			f.remove(i)
			ref = slices.Delete(ref, i, i+1)
		}
		if f.len() != len(ref) || !slices.Equal(f.items(), ref) {
			t.Fatalf("step %d: fifo holds %v, want %v", step, f.items(), ref)
		}
	}
}
