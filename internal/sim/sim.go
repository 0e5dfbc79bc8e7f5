//go:build go1.23

// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock and an ordered event queue. Two kinds of
// code run on the loop:
//
//   - Run-to-completion handlers: plain callbacks scheduled with Schedule /
//     ScheduleAt, or parked as continuations on a WaitQueue or Completion
//     (WaitFn, WaitTimeoutFn, WaitAllFn). A handler runs on the event loop
//     itself, must not block, and costs no context switches. All kernel
//     daemons (block dispatcher, pdflush, journal commit, FTL GC) run this
//     way.
//
//   - Cooperative processes (Proc): runtime coroutines (iter.Pull) with
//     blocking control flow (Sleep, Wait, WaitTimeout) for workload and
//     application code. Exactly one process (or handler) runs at a time;
//     control returns to the event loop whenever a process sleeps or
//     blocks. Each park/resume is a direct coroutine switch, with no
//     channel and no trip through the Go scheduler, yet still costs an
//     order of magnitude more than a handler call — which is why hot
//     kernel paths are handlers, not Procs.
//
// A continuation is the only kind of waiter. A process waits through
// Proc.Await, which parks it once behind a continuation that resumes it:
// WaitQueue.Wait, WaitQueue.WaitTimeout and Completion.Wait are such
// bridges, and so is any handler-built operation a process calls.
//
// Events scheduled for the same instant fire in scheduling order, so runs
// are fully deterministic regardless of which kind of code scheduled them.
// Event structs are slab-allocated and pooled (poisoned on release), and the
// queue is a four-ary min-heap over a concrete event type, so the steady
// state of the loop performs no allocations.
//
// All time is virtual: a Time is nanoseconds since the start of the run, and
// durations use time.Duration for readability (time.Millisecond etc.) even
// though no wall-clock time passes.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time s.
func (t Time) Sub(s Time) time.Duration { return time.Duration(t - s) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

func (t Time) String() string { return time.Duration(t).String() }

// poisonTime marks a released pooled event; a poisoned event reaching the
// heap indicates a use-after-release bug.
const poisonTime = Time(-1 << 62)

type event struct {
	at     Time
	seq    int64
	fn     func()
	pooled bool // on the free list; scheduling or releasing it again is a bug
}

// eventSlabSize is how many event structs one pool growth allocates.
const eventSlabSize = 256

// Stats counts the kernel-level work an environment has performed. The
// counters are plain increments on paths the event loop already executes, so
// they are always on; they never influence scheduling and carry no host
// time, so same-seed runs report identical Stats.
type Stats struct {
	// Events is the number of events popped and executed.
	Events int64
	// Switches counts process handoffs: each one resumes a process's
	// coroutine until it parks again. Run-to-completion handlers never
	// switch, so on kernel paths this stays near zero.
	Switches int64
	// HeapMax is the event-heap depth high-water mark.
	HeapMax int
}

// StatsHook, when non-nil, receives every environment's final Stats as it
// closes. It exists for host-side self-profiling (internal/perf aggregates
// kernel counters across the concurrently closing environments of a sweep);
// install it before running simulations and leave it in place — the hook
// itself must be safe to call from multiple host goroutines. Simulation code
// must never read or write it.
var StatsHook func(Stats)

// Env is a simulation environment: a virtual clock, an event queue, and the
// set of processes it drives. An Env is not safe for concurrent use; all
// interaction must happen from within the simulation (process bodies and
// event callbacks) or before/after Run.
type Env struct {
	now    Time
	events []*event // four-ary min-heap ordered by (at, seq)
	free   []*event // pooled event structs
	seq    int64
	rng    *rand.Rand
	procs  []*Proc
	cur    *Proc
	closed bool
	obs    func(at Time)
	stats  Stats
}

// NewEnv returns a new environment whose clock starts at zero and whose
// random stream is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random stream.
func (e *Env) Rand() *rand.Rand { return e.rng }

// Stats returns the environment's kernel counters so far.
func (e *Env) Stats() Stats { return e.stats }

// SetEventObserver installs a debug hook called with every event's
// timestamp just before its callback runs (the clock has already advanced).
// Tests use it to assert the loop never hands a handler a stale Now().
// Pass nil to remove. The observer must not schedule or run simulation code.
func (e *Env) SetEventObserver(fn func(at Time)) { e.obs = fn }

// allocEvent takes an event struct off the pool, growing it by one slab
// when empty.
func (e *Env) allocEvent() *event {
	if len(e.free) == 0 {
		slab := make([]event, eventSlabSize)
		for i := range slab {
			slab[i].pooled = true
			e.free = append(e.free, &slab[i])
		}
	}
	ev := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	ev.pooled = false
	return ev
}

// releaseEvent poisons ev and returns it to the pool. Double release panics:
// a pooled event re-released would alias two future schedules.
func (e *Env) releaseEvent(ev *event) {
	if ev.pooled {
		panic("sim: event double-release")
	}
	ev.pooled = true
	ev.at = poisonTime
	ev.fn = nil
	e.free = append(e.free, ev)
}

// eventLess orders the heap by (at, seq): time first, scheduling order as
// the deterministic tie-break.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts ev into the four-ary min-heap.
func (e *Env) heapPush(ev *event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.events = h
}

// heapPop removes and returns the minimum event.
func (e *Env) heapPop() *event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.events = h
	// Sift the moved element down; four children per node keeps the tree
	// half as deep as a binary heap, trading comparisons for far fewer
	// cache-missing swaps.
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// Schedule runs fn at the current time plus delay. A negative delay is
// treated as zero. fn runs on the event loop; it must not block.
func (e *Env) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleAt runs fn at time at (or now, if at is in the past).
func (e *Env) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := e.allocEvent()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	e.heapPush(ev)
	if n := len(e.events); n > e.stats.HeapMax {
		e.stats.HeapMax = n
	}
}

// procKilled is the panic sentinel Close uses to unwind live processes.
type procKilled struct{}

// Proc is a simulated process: a coroutine that runs cooperatively under
// the environment's event loop.
type Proc struct {
	env    *Env
	name   string
	next   func() (struct{}, bool) // runs the body until it parks or ends
	yield  func(struct{}) bool     // parks the body, handing control back
	dead   bool
	killed bool
	wake   func() // runs the process; built once so wake-ups allocate nothing
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process that starts running at the current virtual time.
// The process body runs cooperatively: it holds the simulation until it
// sleeps, waits, or returns.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name}
	p.wake = func() { e.runProc(p) }
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			// Drop the coroutine, whose start function holds fn and all
			// it captures, so a finished body is garbage before Close.
			p.dead, p.next, p.yield = true, nil, nil
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					// next re-raises this on the event loop's side, where
					// the caller can recover it; the stack is captured here,
					// the only place that shows the body's frames.
					panic(fmt.Sprintf("sim: process %q panicked at %v: %v\n%s", name, e.now, r, debug.Stack()))
				}
			}
		}()
		if !p.killed {
			fn(p)
		}
	})
	e.procs = append(e.procs, p)
	e.Schedule(0, p.wake)
	return p
}

// runProc hands control to p until it blocks or exits. A panic in p's body
// is re-raised here, after the loop has left p.
func (e *Env) runProc(p *Proc) {
	if p.dead {
		return
	}
	prev := e.cur
	e.cur = p
	e.stats.Switches++
	defer func() { e.cur = prev }()
	p.next()
}

// block parks the calling process until something calls env.runProc on it.
func (p *Proc) block() {
	p.yield(struct{}{})
	if p.killed {
		panic(procKilled{})
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		// Even a zero-length sleep yields to the event loop so that other
		// events scheduled for this instant may run.
		d = 0
	}
	p.env.Schedule(d, p.wake)
	p.block()
}

// Await blocks p on a continuation-style operation: it runs start, handing
// it a resume callback to call exactly once, when the operation finishes.
// A resume that runs before start returns means the operation finished
// inline, and p does not yield at all. A later resume must come from an
// event handler; it runs p inline, inside that event, so p wakes at exactly
// the (at, seq) slot of the event that finished the operation. Every
// process wait on a WaitQueue or Completion is this bridge over the
// continuation form. Resuming a dead process is a no-op.
func (p *Proc) Await(start func(resume func())) {
	// One captured state word, not two flags: each variable a closure
	// captures is its own heap allocation, and every process wait pays it.
	const starting, parked, resumed = 0, 1, 2
	state := starting
	start(func() {
		if state == resumed {
			panic("sim: Await resumed twice")
		}
		wasParked := state == parked
		state = resumed
		if !wasParked {
			return
		}
		if p.env.cur != nil {
			panic("sim: Await resumed from inside a process")
		}
		p.env.runProc(p)
	})
	if state == starting {
		state = parked
		p.block()
	}
}

// Run advances the simulation until no events remain or until the virtual
// clock would pass until. It returns the final virtual time. Events exactly
// at until still run.
func (e *Env) Run(until Time) Time {
	e.loop(until)
	if e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll advances the simulation until no events remain.
func (e *Env) RunAll() Time {
	e.loop(math.MaxInt64)
	return e.now
}

// loop pops and runs events in (at, seq) order until none remain or the
// next one is due after until.
//
//splitlint:hot
func (e *Env) loop(until Time) {
	if e.closed {
		panic("sim: Run on closed Env")
	}
	for len(e.events) > 0 {
		ev := e.events[0]
		if ev.at > until {
			break
		}
		e.heapPop()
		at, fn := ev.at, ev.fn
		e.releaseEvent(ev)
		e.now = at
		e.stats.Events++
		if e.obs != nil {
			e.obs(at)
		}
		fn()
	}
}

// Close terminates every live process, unwinding its coroutine so that its
// deferred calls run and nothing of it outlives the environment. The
// environment must not be used afterwards.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		if p.dead {
			continue
		}
		p.killed = true
		e.runProc(p)
	}
	e.procs = nil
	// Report final kernel counters to the host-side profiler, if one is
	// listening. This is the last thing Close does, so the hook sees the
	// teardown handoffs too.
	if StatsHook != nil {
		StatsHook(e.stats)
	}
}

// WaitQueue is a FIFO queue of parked continuations. Wakers schedule
// wake-ups as zero-delay events, so a woken waiter resumes at the current
// virtual instant but after the waker yields. A process waits through
// Proc.Await, parking the continuation that resumes it.
//
// A park and a wake-up allocate nothing: waiters are kept by value, and
// Signal moves the waiter's continuation onto the ready FIFO and schedules
// the queue's one fire handler, which runs the front of that FIFO. The
// queue schedules its fire events at non-decreasing (at, seq), so they pop
// in signal order and each continuation runs in its own wake event's slot.
type WaitQueue struct {
	env     *Env
	waiters fifo[waiter]
	ready   fifo[func(sig bool)] // signaled, awaiting their fire events
	fire    func()
	lastID  uint64
}

// waiter is a parked continuation. Its id, unique within the queue, is how
// a WaitTimeoutFn timer finds it; a timer that no longer finds its waiter
// knows that it was signaled.
type waiter struct {
	fn func(sig bool)
	id uint64
}

// NewWaitQueue returns an empty wait queue on env.
func NewWaitQueue(env *Env) *WaitQueue {
	q := &WaitQueue{env: env}
	q.fire = func() { q.ready.pop()(true) }
	return q
}

// Len returns the number of blocked waiters.
func (q *WaitQueue) Len() int { return q.waiters.len() }

// Wait blocks p until another process or event signals the queue.
func (q *WaitQueue) Wait(p *Proc) {
	p.Await(func(resume func()) { q.WaitFn(func(bool) { resume() }) })
}

// WaitFn parks fn until the queue is signaled. The continuation runs as a
// zero-delay event with sig=true.
func (q *WaitQueue) WaitFn(fn func(sig bool)) { q.park(fn) }

// park appends fn as a waiter and returns its id.
func (q *WaitQueue) park(fn func(sig bool)) uint64 {
	q.lastID++
	q.waiters.push(waiter{fn: fn, id: q.lastID})
	return q.lastID
}

// WaitTimeout blocks p until the queue is signaled or d elapses. It reports
// whether the wake-up was a signal (true) rather than a timeout (false).
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) bool {
	var sig bool
	p.Await(func(resume func()) {
		q.WaitTimeoutFn(d, func(s bool) { sig = s; resume() })
	})
	return sig
}

// WaitTimeoutFn parks fn until the queue is signaled (fn runs as a
// zero-delay event with sig=true) or d elapses (fn runs inside the timer
// event with sig=false). On expiry the waiter leaves the queue; a waiter
// already signaled has left it, and its timer does nothing.
func (q *WaitQueue) WaitTimeoutFn(d time.Duration, fn func(sig bool)) {
	id := q.park(fn)
	q.env.Schedule(d, func() {
		for i, w := range q.waiters.items() {
			if w.id == id {
				q.waiters.remove(i)
				w.fn(false)
				return
			}
		}
	})
}

// Signal wakes the longest-waiting waiter, if any.
func (q *WaitQueue) Signal() {
	if q.waiters.len() == 0 {
		return
	}
	q.ready.push(q.waiters.pop().fn)
	q.env.Schedule(0, q.fire)
}

// Broadcast wakes every blocked waiter in FIFO order.
func (q *WaitQueue) Broadcast() {
	for q.waiters.len() > 0 {
		q.Signal()
	}
}

// fifo is a queue on a reused slice. pop advances a head index; push slides
// the live entries back to the front once the slice is full and at least
// half of it has been popped. A steady push/pop cycle thus allocates
// nothing, and each entry is copied a constant number of times amortized.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// items returns the queued entries, front first.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the front entry. The queue must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// remove deletes the i-th entry from the front, keeping the rest in order.
func (f *fifo[T]) remove(i int) {
	f.buf = slices.Delete(f.buf, f.head+i, f.head+i+1)
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// Completion is a one-shot event that continuations, and processes through
// Proc.Await, can wait on. Waiting on an already-completed Completion
// returns (or, for WaitFn, runs the continuation) immediately.
type Completion struct {
	env  *Env
	done bool
	q    []func()
}

// NewCompletion returns an incomplete Completion on env.
func NewCompletion(env *Env) *Completion { return &Completion{env: env} }

// Init makes c an incomplete Completion on env, in place: for a Completion
// held by value in the record it completes, which saves NewCompletion's
// allocation.
func (c *Completion) Init(env *Env) { *c = Completion{env: env} }

// Done reports whether Complete has been called.
func (c *Completion) Done() bool { return c.done }

// Complete marks the completion done and wakes all waiters, each as a
// zero-delay event in registration order. Completing twice is a no-op.
func (c *Completion) Complete() {
	if c.done {
		return
	}
	c.done = true
	for _, fn := range c.q {
		c.env.Schedule(0, fn)
	}
	c.q = nil
}

// Wait blocks p until the completion is done.
func (c *Completion) Wait(p *Proc) {
	if c.done {
		return
	}
	p.Await(c.WaitFn)
}

// WaitFn parks fn until the completion is done. If it already is, fn runs
// inline — the continuation analog of Wait returning without yielding.
// Otherwise fn runs as a zero-delay event when Complete fires.
func (c *Completion) WaitFn(fn func()) {
	if c.done {
		fn()
		return
	}
	c.q = append(c.q, fn)
}

// WaitAllFn invokes k once every completion in cs is done, waiting on each
// in order — the continuation analog of a process calling Wait in a loop.
// Completions already done are skipped inline; k runs inline if all are.
func WaitAllFn(cs []*Completion, k func()) {
	i := 0
	var step func()
	step = func() {
		for i < len(cs) && cs[i].done {
			i++
		}
		if i == len(cs) {
			k()
			return
		}
		c := cs[i]
		i++
		c.q = append(c.q, step)
	}
	step()
}
