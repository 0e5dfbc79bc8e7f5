// Microbenchmarks for the DES kernel's two hot paths: the event heap
// (schedule/pop with no processes) and the coroutine engine (the
// coroutine switch behind every blocking operation, and the WaitQueue and
// Completion waits that park a process through it), plus
// BenchmarkEventLoopMix, the bare kernel under the traffic mix of the
// run-to-completion stack. `make microbench` runs these; the benchmark of
// record (cmd/benchmark) measures the same paths end to end through the
// paper's experiments.
package sim_test

import (
	"testing"
	"time"

	"splitio/internal/sim"
)

// BenchmarkEventHeapTimerChain measures raw heap push/pop: a single timer
// rescheduling itself b.N times, no process switches involved.
func BenchmarkEventHeapTimerChain(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			env.Schedule(time.Microsecond, tick)
		}
	}
	env.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkEventHeapDepth measures heap behavior with a populated heap:
// 1024 standing timers plus the driven chain, so push/pop pays a realistic
// sift depth.
func BenchmarkEventHeapDepth(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	for i := 0; i < 1024; i++ {
		env.Schedule(time.Hour+time.Duration(i), func() {})
	}
	left := b.N
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			env.Schedule(time.Microsecond, tick)
		}
	}
	env.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run(sim.Time(time.Hour / 2))
}

// BenchmarkCoroutineSwitch measures the park/resume handoff: one process
// sleeping b.N times, one coroutine switch into the process and one back
// out per sleep.
func BenchmarkCoroutineSwitch(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// benchWarmRounds wait/wake round trips run before the timer starts, so
// the measured rounds see grown slices and a filled event pool.
const benchWarmRounds = 64

// BenchmarkWaitQueueWaitSignal measures one process's WaitQueue.Wait and
// Signal round trip: a timer signals the queue, and the wake event resumes
// the parked process (one handoff, two events per round).
func BenchmarkWaitQueueWaitSignal(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	q := sim.NewWaitQueue(env)
	signal := q.Signal
	env.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < benchWarmRounds+b.N; i++ {
			env.Schedule(time.Microsecond, signal)
			q.Wait(p)
		}
	})
	env.Run(sim.Time(benchWarmRounds * time.Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// BenchmarkCompletionWait measures one process's Completion.Wait round
// trip: a timer completes a fresh completion, and the wake event resumes
// the parked process.
func BenchmarkCompletionWait(b *testing.B) {
	env := sim.NewEnv(1)
	defer env.Close()
	env.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < benchWarmRounds+b.N; i++ {
			c := sim.NewCompletion(env)
			env.Schedule(time.Microsecond, c.Complete)
			c.Wait(p)
		}
	})
	env.Run(sim.Time(benchWarmRounds * time.Microsecond))
	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
}

// The traffic mix of BenchmarkEventLoopMix models the run-to-completion
// kernel: the hot daemons (block dispatcher, pdflush, journal, device
// completion, FTL GC) are handlers, so most events are handler traffic —
// a self-rescheduling timer chain, wait-queue signal ping-pong, and
// completion continuation chains — while a small slice remains
// cooperative processes, the share workload and app code keep.
const (
	// eventLoopProcs cooperative processes take 1/eventLoopProcShare of
	// the events; each Sleep costs a coroutine switch in and out, like app
	// code blocking in the stack, so switches/event stays near 0.016.
	eventLoopProcs     = 4
	eventLoopProcShare = 64
	// eventLoopWakeShare divides the events given to each kind of handler
	// wake traffic (wait-queue ping-pong, completion chains).
	eventLoopWakeShare = 16
	// eventLoopStandingTimers far-out timers stay in the heap so every
	// push/pop pays a realistic sift depth, as with commit timers, GC
	// backoffs and device completions outstanding.
	eventLoopStandingTimers = 16
)

// BenchmarkEventLoopMix drives a bare event loop for about b.N events of
// the run-to-completion traffic mix and reports events/s and
// switches/event.
func BenchmarkEventLoopMix(b *testing.B) {
	n := max(int64(b.N), 16)
	env := sim.NewEnv(1)
	defer env.Close()

	// Standing far-future timers: heap depth ballast.
	for i := 0; i < eventLoopStandingTimers; i++ {
		env.Schedule(time.Hour+time.Duration(i), func() {})
	}

	// Workload slice: cooperative processes ping-ponging with the loop.
	perProc := n / eventLoopProcShare / eventLoopProcs
	for i := 0; i < eventLoopProcs; i++ {
		env.Go("spin", func(p *sim.Proc) {
			for j := int64(0); j < perProc; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}

	// Handler wake traffic: two handlers signaling each other through wait
	// queues, the dispatcher<->completion handoff shape. One wake event per
	// signal.
	qa, qb := sim.NewWaitQueue(env), sim.NewWaitQueue(env)
	pings := n / eventLoopWakeShare
	var pumpA, pumpB func(sig bool)
	pumpA = func(bool) {
		if pings <= 0 {
			return
		}
		pings--
		qa.WaitFn(pumpA)
		qb.Signal()
	}
	pumpB = func(bool) {
		if pings <= 0 {
			return
		}
		pings--
		qb.WaitFn(pumpB)
		qa.Signal()
	}
	qa.WaitFn(pumpA)
	qb.WaitFn(pumpB)
	env.Schedule(0, qa.Signal)

	// Completion chains: the submit/complete request lifecycle. Each round
	// allocates a one-shot Completion (as a request submission does), fires
	// it on a timer, and continues from its WaitFn — two events per round.
	rounds := n / eventLoopWakeShare / 2
	var submit func()
	submit = func() {
		if rounds <= 0 {
			return
		}
		rounds--
		d := sim.NewCompletion(env)
		env.Schedule(time.Microsecond, d.Complete)
		d.WaitFn(submit)
	}
	env.Schedule(0, submit)

	// The rest of the events: a bare timer chain rescheduling itself.
	left := n - 2*(n/eventLoopWakeShare) - n/eventLoopProcShare
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			env.Schedule(time.Microsecond, tick)
		}
	}
	env.Schedule(0, tick)

	b.ReportAllocs()
	b.ResetTimer()
	env.RunAll()
	b.StopTimer()
	st := env.Stats()
	b.ReportMetric(float64(st.Events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(st.Switches)/float64(st.Events), "switches/event")
}
