// White-box tests for the process lifecycle: Close must end every process
// whatever state it is in, and a panic in a process body must surface from
// the event loop on the caller's goroutine, annotated, with the loop no
// longer inside the process.
package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestCloseEndsProcessGoroutines spawns processes in every state Close has
// to unwind — finished, parked in Sleep, parked in Await on a WaitQueue
// (with and without a timeout) and on a Completion, and spawned but never
// run — and checks that every started body's deferred calls ran, that the
// unstarted body never ran, and that no process outlives Close as a
// goroutine.
func TestCloseEndsProcessGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEnv(1)
	q := NewWaitQueue(e)
	c := NewCompletion(e)
	deferred := map[string]bool{}
	spawn := func(name string, body func(p *Proc)) {
		e.Go(name, func(p *Proc) {
			defer func() { deferred[name] = true }()
			body(p)
		})
	}
	spawn("finished", func(p *Proc) {})
	spawn("sleeping", func(p *Proc) { p.Sleep(time.Hour) })
	spawn("queued", func(p *Proc) { q.Wait(p) })
	spawn("timed", func(p *Proc) { q.WaitTimeout(p, time.Hour) })
	spawn("completing", func(p *Proc) { c.Wait(p) })
	e.Run(Time(time.Millisecond))
	unstarted := false
	e.Go("unstarted", func(p *Proc) { unstarted = true })
	e.Close()

	for _, name := range []string{"finished", "sleeping", "queued", "timed", "completing"} {
		if !deferred[name] {
			t.Errorf("process %q: deferred call did not run by Close", name)
		}
	}
	if unstarted {
		t.Error("a process spawned but never run started its body at Close")
	}
	// A process goroutine may still be returning when Close does; give it
	// a moment, then insist.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, want at most the %d before the env", n, base)
	}
}

// TestFinishedProcessReleasesBody checks that a process that has returned
// no longer keeps its body reachable: an object only the body's closure
// captures is collected while the Env is still open.
func TestFinishedProcessReleasesBody(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	collected := make(chan struct{})
	func() {
		captured := new([64]byte)
		runtime.SetFinalizer(captured, func(*[64]byte) { close(collected) })
		e.Go("finished", func(p *Proc) {
			p.Sleep(time.Millisecond)
			captured[0]++
		})
	}()
	e.RunAll()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished process's body closure is still reachable before Close")
		}
	}
}

// TestProcPanicSurfacesFromRun recovers a process body's panic from RunAll:
// the message names the process, the virtual time and the value, carries
// the body's own stack, and the loop is no longer inside the process.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEnv(1)
	defer e.Close()
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("exploder", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	var r any
	func() {
		defer func() { r = recover() }()
		e.RunAll()
	}()
	msg, ok := r.(string)
	if !ok {
		t.Fatalf("RunAll recovered %v (%T), want an annotated string", r, r)
	}
	if want := `sim: process "exploder" panicked at 1ms: boom`; !strings.HasPrefix(msg, want) {
		t.Errorf("panic message %q, want prefix %q", msg, want)
	}
	if !strings.Contains(msg, "TestProcPanicSurfacesFromRun.func") {
		t.Errorf("panic message does not carry the body's stack:\n%s", msg)
	}
	if e.cur != nil {
		t.Errorf("e.cur = %q after the panic left RunAll, want nil", e.cur.name)
	}
}
