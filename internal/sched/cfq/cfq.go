// Package cfq implements a block-level Completely Fair Queuing scheduler,
// the Linux default the paper evaluates against (§2, §5.1).
//
// CFQ keeps one queue per *submitting* process — all the information the
// block level provides. Disk time is divided among queues in proportion to
// the submitter's I/O priority using stride accounting, with time slices
// and a short anticipation window that preserves sequential streams of
// synchronous readers. Its two structural failures, faithfully reproduced:
//
//   - buffered writes are submitted by the writeback task, so every async
//     write lands in pdflush's single priority-4 queue regardless of who
//     dirtied the data (Fig 3);
//   - the idle class only gates request *dispatch*; a burst of buffered
//     writes from an idle-class process has already escaped upstream
//     (Fig 1).
package cfq

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/ioctx"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/stride"
)

type queue struct {
	pid   causes.PID
	prio  int
	class block.Class
	reqs  []*block.Request
}

func (q *queue) pop() *block.Request {
	r := q.reqs[0]
	copy(q.reqs, q.reqs[1:])
	q.reqs = q.reqs[:len(q.reqs)-1]
	return r
}

// Sched is the CFQ scheduler; it is its own elevator.
type Sched struct {
	env   *sim.Env
	layer *block.Layer

	queues map[causes.PID]*queue
	st     *stride.Stride

	cur       causes.PID
	curValid  bool
	sliceUsed time.Duration
	idleUntil sim.Time

	// BaseSlice is how long one queue may hold the disk before CFQ
	// switches to the next queue.
	BaseSlice time.Duration
}

// idleWindow is the anticipation wait for a synchronous process's next
// request after its queue drains.
const idleWindow = 2 * time.Millisecond

// New builds a CFQ scheduler.
func New(env *sim.Env) core.Scheduler {
	return &Sched{
		env:       env,
		queues:    make(map[causes.PID]*queue),
		st:        stride.New(),
		BaseSlice: 100 * time.Millisecond,
	}
}

// Factory is the core.Factory for CFQ.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "cfq" }

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s }

// Attach implements core.Scheduler: it publishes the per-class queued
// totals and the state of the slice/anticipation machinery as gauges.
func (s *Sched) Attach(k *core.Kernel) {
	s.layer = k.Block
	r := k.Metrics
	r.Gauge("sched.queued_be", func() float64 { return s.queued(false) })
	r.Gauge("sched.queued_idle", func() float64 { return s.queued(true) })
	r.Gauge("sched.active_queues", func() float64 {
		n := 0
		for _, q := range s.queues {
			if len(q.reqs) > 0 {
				n++
			}
		}
		return float64(n)
	})
	r.Gauge("sched.slice_active", func() float64 { return metrics.Flag(s.curValid) })
	r.Gauge("sched.anticipating", func() float64 { return metrics.Flag(s.env.Now() < s.idleUntil) })
}

// queued counts the requests queued in the idle class, or in the
// best-effort classes when idle is false.
func (s *Sched) queued(idle bool) float64 {
	n := 0
	for _, q := range s.queues {
		if (q.class == block.ClassIdle) == idle {
			n += len(q.reqs)
		}
	}
	return float64(n)
}

// Add implements block.Elevator. CFQ sees only the submitter, never the
// causes — that is the block-level information gap.
func (s *Sched) Add(r *block.Request) {
	q, ok := s.queues[r.Submitter]
	if !ok {
		q = &queue{pid: r.Submitter, prio: r.Prio, class: r.Class}
		s.queues[r.Submitter] = q
		s.st.Ensure(int64(r.Submitter), ioctx.TicketsFor(r.Prio))
	}
	q.reqs = append(q.reqs, r)
}

// Next implements block.Elevator.
func (s *Sched) Next(now sim.Time) *block.Request {
	if s.curValid {
		q := s.queues[s.cur]
		if s.sliceUsed < s.BaseSlice {
			if q != nil && len(q.reqs) > 0 {
				return q.pop()
			}
			// Anticipate the current process's next synchronous request.
			if now < s.idleUntil {
				return nil
			}
		}
		s.curValid = false
	}
	// Pick the best-effort queue with the lowest pass.
	pid, ok := s.st.PickMin(func(id int64) bool {
		q, ok := s.queues[causes.PID(id)]
		return ok && q.class == block.ClassBE && len(q.reqs) > 0
	})
	if ok {
		s.cur = causes.PID(pid)
		s.curValid = true
		s.sliceUsed = 0
		return s.queues[s.cur].pop()
	}
	// Idle class runs only when the disk is otherwise unclaimed.
	pid, ok = s.st.PickMin(func(id int64) bool {
		q, ok := s.queues[causes.PID(id)]
		return ok && len(q.reqs) > 0
	})
	if ok {
		s.cur = causes.PID(pid)
		s.curValid = true
		s.sliceUsed = 0
		return s.queues[s.cur].pop()
	}
	return nil
}

// Completed implements block.Elevator: charge the submitter's pass and arm
// the anticipation window after synchronous requests.
func (s *Sched) Completed(r *block.Request) {
	s.st.Charge(int64(r.Submitter), r.Service.Seconds())
	if s.curValid && r.Submitter == s.cur {
		s.sliceUsed += r.Service
		q := s.queues[s.cur]
		if len(q.reqs) == 0 && r.Sync && s.sliceUsed < s.BaseSlice {
			s.idleUntil = s.env.Now().Add(idleWindow)
			if s.layer != nil {
				layer := s.layer
				s.env.Schedule(idleWindow, layer.Kick)
			}
		}
	}
}

// QueuedFor reports how many requests are queued for pid — the "portion of
// requests seen per priority" measurement of Fig 3 reads this.
func (s *Sched) QueuedFor(pid causes.PID) int {
	if q, ok := s.queues[pid]; ok {
		return len(q.reqs)
	}
	return 0
}
