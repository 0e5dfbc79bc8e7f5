package myelv

import (
	"sync"
	"time"

	"splitio/internal/sim"
)

// The run-to-completion registration points: continuations parked on wait
// queues and completions, and named scheduled functions, are hot roots —
// each of these blocks when woken.

var relockMu sync.Mutex

var pumpCh chan int

// ArmWaiters parks continuations at every new registration point.
func ArmWaiters(env *sim.Env, q *sim.WaitQueue, c *sim.Completion) {
	q.WaitFn(func(sig bool) {
		relockMu.Lock()
	})
	q.WaitTimeoutFn(time.Millisecond, expire)
	c.WaitFn(func() {
		go drain(nil)
	})
	sim.WaitAllFn(nil, barrier)
	env.Schedule(0, pump)
}

// expire is a named WaitTimeoutFn continuation that sleeps on the host.
func expire(sig bool) {
	time.Sleep(time.Millisecond)
}

// barrier is a WaitAllFn continuation that parks on a channel.
func barrier() {
	<-pumpCh
}

// pump is a named scheduled handler that spawns.
func pump() {
	go drain(pumpCh)
}
