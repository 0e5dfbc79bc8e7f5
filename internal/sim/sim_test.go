package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Millisecond) {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant events ran out of order: %v", got)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	ran := 0
	e.Schedule(time.Second, func() { ran++ })
	e.Schedule(3*time.Second, func() { ran++ })
	e.Run(Time(2 * time.Second))
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	e.RunAll()
	if ran != 2 {
		t.Fatalf("ran = %d after RunAll, want 2", ran)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(1)
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = p.Now()
	})
	e.RunAll()
	if wake != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv(1)
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a0")
		p.Sleep(2 * time.Millisecond)
		got = append(got, "a2")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b0")
		p.Sleep(1 * time.Millisecond)
		got = append(got, "b1")
		p.Sleep(2 * time.Millisecond)
		got = append(got, "b3")
	})
	e.RunAll()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestWaitQueueSignal(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue(e)
	var woke []string
	mk := func(name string) {
		e.Go(name, func(p *Proc) {
			q.Wait(p)
			woke = append(woke, name)
		})
	}
	mk("w1")
	mk("w2")
	e.Go("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Signal()
		p.Sleep(time.Millisecond)
		q.Signal()
	})
	e.RunAll()
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Fatalf("woke = %v, want [w1 w2]", woke)
	}
}

func TestWaitQueueBroadcast(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue(e)
	n := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			q.Wait(p)
			n++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Broadcast()
	})
	e.RunAll()
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
	if q.Len() != 0 {
		t.Fatalf("queue len = %d, want 0", q.Len())
	}
}

func TestCompletion(t *testing.T) {
	e := NewEnv(1)
	c := NewCompletion(e)
	var when Time
	e.Go("waiter", func(p *Proc) {
		c.Wait(p)
		when = p.Now()
	})
	e.Schedule(7*time.Millisecond, c.Complete)
	e.RunAll()
	if when != Time(7*time.Millisecond) {
		t.Fatalf("completed at %v, want 7ms", when)
	}
	if !c.Done() {
		t.Fatal("completion not done")
	}
	// Waiting on a done completion returns immediately.
	var again bool
	e.Go("late", func(p *Proc) {
		c.Wait(p)
		again = true
	})
	e.RunAll()
	if !again {
		t.Fatal("late waiter never returned")
	}
}

func TestCompletionOnComplete(t *testing.T) {
	e := NewEnv(1)
	c := NewCompletion(e)
	fired := 0
	c.WaitFn(func() { fired++ })
	c.Complete()
	c.Complete() // idempotent
	if fired != 0 {
		t.Fatalf("parked continuation ran inside Complete: fired = %d, want 0", fired)
	}
	e.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d after RunAll, want 1", fired)
	}
	c.WaitFn(func() { fired++ }) // already done: runs inline
	if fired != 2 {
		t.Fatalf("fired = %d after WaitFn on a done completion, want 2", fired)
	}
}

// TestKill closes the env while a process sleeps on a pending timer: Close
// kills it, so the body never runs past its Sleep.
func TestKill(t *testing.T) {
	e := NewEnv(1)
	reached := false
	e.Go("victim", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		reached = true
	})
	e.Run(Time(time.Millisecond))
	e.Close()
	if reached {
		t.Fatal("killed process kept running")
	}
}

func TestClose(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue(e)
	e.Go("stuck", func(p *Proc) {
		q.Wait(p) // never signaled
		t.Error("stuck process resumed normally")
	})
	e.Run(Time(time.Second))
	e.Close()
	// Close is idempotent.
	e.Close()
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEnv(42)
		var ticks []Time
		for i := 0; i < 4; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					ticks = append(ticks, p.Now())
				}
			})
		}
		e.RunAll()
		return ticks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	f := func(base int64, d int32) bool {
		tm := Time(base % (1 << 40))
		dur := time.Duration(d)
		if dur < 0 {
			dur = -dur
		}
		added := tm.Add(dur)
		return added.Sub(tm) == dur
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := NewEnv(1)
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a-before")
		p.Sleep(0)
		got = append(got, "a-after")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b")
	})
	e.RunAll()
	// b was spawned after a but a's yield lets b run before a-after.
	want := []string{"a-before", "b", "a-after"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestWaitTimeout(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue(e)
	var timedOut, signaled bool
	// FIFO: the signal at 2ms wakes the first waiter; the second times out.
	e.Go("first", func(p *Proc) {
		if sig := q.WaitTimeout(p, 5*time.Millisecond); sig {
			signaled = true
		}
		if p.Now() != Time(2*time.Millisecond) {
			t.Errorf("signal woke at %v, want 2ms", p.Now())
		}
	})
	e.Go("second", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if sig := q.WaitTimeout(p, 50*time.Millisecond); !sig {
			timedOut = true
		}
		if p.Now() != Time(51*time.Millisecond) {
			t.Errorf("timeout woke at %v, want 51ms", p.Now())
		}
	})
	e.Schedule(2*time.Millisecond, q.Signal)
	e.RunAll()
	if !signaled {
		t.Fatal("first waiter should have been signaled")
	}
	if !timedOut {
		t.Fatal("second waiter should have timed out")
	}
	if q.Len() != 0 {
		t.Fatalf("queue len = %d", q.Len())
	}
}

func TestWaitTimeoutSignalBeatsTimer(t *testing.T) {
	e := NewEnv(1)
	q := NewWaitQueue(e)
	woken := 0
	e.Go("w", func(p *Proc) {
		if q.WaitTimeout(p, time.Millisecond) {
			woken++
		}
	})
	e.Schedule(0, q.Signal)
	e.RunAll()
	if woken != 1 {
		t.Fatal("signal at same instant should win over later timer")
	}
}
