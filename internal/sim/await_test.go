// Proc.Await bridges a blocking process onto a continuation-style
// operation. Its contract is what keeps the schedule unchanged when a
// blocking call is rebuilt on continuations: an inline resume does not
// yield, a later resume runs the process inside the resuming event (no
// extra event, same instant, ahead of anything scheduled after it), a
// second resume panics, and a resume that arrives after the process died
// does nothing.
package sim

import (
	"testing"
	"time"
)

// TestAwaitInlineResumeDoesNotYield resumes before start returns: the
// process keeps running inside its current event, so no event pops, no
// handoff happens, and the clock stays put.
func TestAwaitInlineResumeDoesNotYield(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	ran := false
	e.Go("p", func(p *Proc) {
		p.Sleep(time.Millisecond)
		before, now := e.Stats(), p.Now()
		p.Await(func(resume func()) { resume() })
		after := e.Stats()
		if after.Events != before.Events || after.Switches != before.Switches {
			t.Errorf("inline resume yielded: stats %+v -> %+v", before, after)
		}
		if p.Now() != now {
			t.Errorf("inline resume moved the clock: %v -> %v", now, p.Now())
		}
		ran = true
	})
	e.RunAll()
	if !ran {
		t.Fatal("process never finished its Await")
	}
}

// TestAwaitResumeTwicePanics: a second resume would run a process that has
// moved on and may be parked elsewhere, so it fails loudly.
func TestAwaitResumeTwicePanics(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	var msg any
	e.Go("p", func(p *Proc) {
		defer func() { msg = recover() }()
		p.Await(func(resume func()) {
			resume()
			resume()
		})
	})
	e.RunAll()
	if msg != "sim: Await resumed twice" {
		t.Fatalf("second resume: recovered %v, want the double-resume panic", msg)
	}
}

// TestAwaitLaterResumeRunsInsideEvent resumes from a timer event: the
// process continues inside that event, at its instant, before a second
// event scheduled for the same instant afterwards, and without any event
// of its own.
func TestAwaitLaterResumeRunsInsideEvent(t *testing.T) {
	const d = 5 * time.Millisecond
	e := NewEnv(1)
	defer e.Close()
	var order []string
	var wokeAt Time
	var eventsAtWake int64
	e.Go("p", func(p *Proc) {
		p.Await(func(resume func()) {
			e.Schedule(d, resume)
			e.Schedule(d, func() { order = append(order, "other") })
		})
		wokeAt, eventsAtWake = p.Now(), e.Stats().Events
		order = append(order, "proc")
	})
	e.RunAll()
	if wokeAt != Time(d) {
		t.Errorf("woke at %v, want %v", wokeAt, Time(d))
	}
	// Event 1 starts the process, event 2 is the resuming timer.
	if eventsAtWake != 2 {
		t.Errorf("woke during event %d, want 2 (the resuming event)", eventsAtWake)
	}
	if got := e.Stats(); got.Events != 3 || got.Switches != 2 {
		t.Errorf("stats = %+v, want 3 events and 2 switches", got)
	}
	if len(order) != 2 || order[0] != "proc" || order[1] != "other" {
		t.Errorf("order = %v, want [proc other]", order)
	}
}

// TestAwaitResumeAfterDeathIsNoop resumes a process whose env was closed
// while it awaited: the resume must neither run the dead body nor count a
// handoff.
func TestAwaitResumeAfterDeathIsNoop(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		e := NewEnv(1)
		var resume func()
		after := false
		e.Go("p", func(p *Proc) {
			p.Await(func(r func()) { resume = r })
			after = true
		})
		e.RunAll()
		if resume == nil {
			t.Fatal("start never ran")
		}
		e.Close()
		before := e.Stats()
		resume()
		if after {
			t.Error("resume ran the dead process past its Await")
		}
		if got := e.Stats(); got != before {
			t.Errorf("resume of a dead process changed stats: %+v -> %+v", before, got)
		}
	})
}
