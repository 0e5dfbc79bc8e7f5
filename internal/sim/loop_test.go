// White-box tests for the run-to-completion event loop itself: the pooled
// event lifecycle (poison-on-release, double-release panic), exactness of
// the Stats counters and the heap high-water mark, the event-observer
// contract (the clock is already advanced when a handler runs, time never
// goes backwards, every popped event is observed), and the zero-allocation
// guarantee of the steady-state schedule/pop cycle.
package sim

import (
	"testing"
	"time"
)

// TestEventPoolPoisonOnRelease checks that releasing an event poisons it —
// sentinel timestamp, cleared callback, pooled flag — and returns it to the
// free list, and that a second release of the same struct panics rather
// than aliasing two future schedules onto one pooled object.
func TestEventPoolPoisonOnRelease(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ev := e.allocEvent()
	if ev.pooled {
		t.Fatalf("allocEvent returned an event still marked pooled")
	}
	ev.at = Time(42)
	ev.seq = 7
	ev.fn = func() {}
	free := len(e.free)
	e.releaseEvent(ev)
	if !ev.pooled {
		t.Errorf("released event not marked pooled")
	}
	if ev.at != poisonTime {
		t.Errorf("released event at = %d, want poison %d", ev.at, poisonTime)
	}
	if ev.fn != nil {
		t.Errorf("released event kept its callback")
	}
	if len(e.free) != free+1 {
		t.Errorf("free list grew by %d, want 1", len(e.free)-free)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("double release did not panic")
		}
		if s, ok := r.(string); !ok || s != "sim: event double-release" {
			t.Fatalf("double release panicked with %v, want %q", r, "sim: event double-release")
		}
	}()
	e.releaseEvent(ev)
}

// TestHeapMaxExact pins the high-water mark to the exact standing depth of
// the heap: N simultaneous schedules raise it to N, draining and refilling
// below N leaves it there, and a self-rescheduling timer chain — the hot
// dispatcher shape — holds it at 1 because the pop precedes the next push.
func TestHeapMaxExact(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	const n = 37
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if hm := e.Stats().HeapMax; hm != n {
		t.Fatalf("HeapMax = %d after %d standing schedules, want %d", hm, n, n)
	}
	e.RunAll()
	for i := 0; i < n/2; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunAll()
	if hm := e.Stats().HeapMax; hm != n {
		t.Fatalf("HeapMax moved to %d after a shallower refill, want %d", hm, n)
	}
	if ev := e.Stats().Events; ev != n+n/2 {
		t.Fatalf("Events = %d, want %d", ev, n+n/2)
	}

	chain := NewEnv(1)
	defer chain.Close()
	left := 100
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			chain.Schedule(time.Microsecond, tick)
		}
	}
	chain.Schedule(0, tick)
	chain.RunAll()
	if hm := chain.Stats().HeapMax; hm != 1 {
		t.Errorf("timer chain HeapMax = %d, want 1", hm)
	}
	if ev := chain.Stats().Events; ev != 101 {
		t.Errorf("timer chain Events = %d, want 101", ev)
	}
}

// TestEventObserverInvariants drives a mixed run — timer chain, sleeping
// process, wait-queue handoff — under an event observer and checks the
// loop's contract: the observer sees every popped event exactly once
// (count equals the Stats.Events delta), the timestamps are monotone
// non-decreasing, and the clock has already advanced when the observer
// (and therefore the callback) runs.
func TestEventObserverInvariants(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var calls int64
	stale := 0
	backwards := 0
	last := Time(-1)
	e.SetEventObserver(func(at Time) {
		calls++
		if at < last {
			backwards++
		}
		last = at
		if at != e.Now() {
			stale++
		}
	})
	q := NewWaitQueue(e)
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Wait(p)
	})
	e.Schedule(2*time.Millisecond, q.Signal)
	ticks := 0
	var tick func()
	tick = func() {
		if ticks < 10 {
			ticks++
			e.Schedule(time.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
	e.SetEventObserver(nil)
	if got := e.Stats().Events; calls != got {
		t.Errorf("observer ran %d times but Stats().Events = %d", calls, got)
	}
	if backwards != 0 {
		t.Errorf("observer saw time go backwards %d times", backwards)
	}
	if stale != 0 {
		t.Errorf("observer saw a stale Env.Now() %d times", stale)
	}
	if calls == 0 {
		t.Fatalf("observer never ran")
	}
}

// TestScheduleRunZeroAllocs asserts the steady-state schedule/pop cycle —
// pooled event structs, a warmed heap slice, a fixed callback value — does
// not allocate. This is the property the slab pool and the concrete-typed
// four-ary heap exist to provide; interface{} boxing would show up here as
// nonzero allocs. TestSleepZeroAllocs covers process wake-ups.
func TestScheduleRunZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEnv(1)
	defer e.Close()
	fn := func() {}
	// Warm the slab, the free list, and the heap slice capacity.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			e.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/pop allocated %.2f objects per cycle, want 0", allocs)
	}
}

// TestSleepZeroAllocs asserts that a warmed process sleeps without
// allocating: its wake-up callback is built once, when it is spawned, not
// per Sleep.
func TestSleepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := NewEnv(1)
	defer e.Close()
	allocs := -1.0
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Microsecond) // warm the event pool and the heap slice
		allocs = testing.AllocsPerRun(100, func() { p.Sleep(time.Microsecond) })
	})
	e.RunAll()
	if allocs != 0 {
		t.Fatalf("a warmed Sleep allocated %.2f objects, want 0", allocs)
	}
}

// TestStatsSwitchesCountHandoffs pins Switches to the exact number of
// proc handoffs: handlers and bare events cost zero, and each Sleep of a
// process costs exactly one resume.
func TestStatsSwitchesCountHandoffs(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	e.RunAll()
	if sw := e.Stats().Switches; sw != 0 {
		t.Errorf("pure handler run performed %d switches, want 0", sw)
	}
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	e.RunAll()
	// One switch for the startup handoff, one per Sleep resume.
	if sw := e.Stats().Switches; sw != 6 {
		t.Errorf("5-sleep process performed %d switches, want 6", sw)
	}
	e.Close()
}
