// Package bdeadline implements the Linux Block-Deadline scheduler
// (paper §2.3.2, §5.2): FIFO deadline queues plus LBA-sorted queues for
// reads and writes. Requests are served in location order for throughput,
// except that a request whose deadline has expired is served first.
//
// As the paper adds for a fair comparison, per-process deadlines are
// supported: the file system stamps each request's Deadline from the
// submitting context's settings; unset deadlines get the Linux defaults
// (50 ms reads, 500 ms writes).
//
// Its structural failure (Fig 5): a block-level write deadline is
// meaningless when the file system orders the request behind a journal
// commit that depends on unrelated data, and the scheduler cannot see or
// reorder any of that.
package bdeadline

import (
	"sort"
	"time"

	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/metrics"
	"splitio/internal/sim"
)

// Sched is the Block-Deadline scheduler; it is its own elevator.
type Sched struct {
	Queues
	env *sim.Env
}

// Queues is the location half of a deadline scheduler, which Split-Deadline
// shares: LBA-sorted read and write queues served in C-SCAN order from the
// last dispatched block, reads preferred until writes have been passed over
// writesStarvedLimit times, and expired reads served first by deadline.
type Queues struct {
	reads  []*block.Request // sorted by LBA
	writes []*block.Request // sorted by LBA

	lastLBA      int64
	writesStarve int
}

const (
	// defaultReadDeadline and defaultWriteDeadline apply when a request
	// carries no deadline.
	defaultReadDeadline  = 50 * time.Millisecond
	defaultWriteDeadline = 500 * time.Millisecond
	// writesStarvedLimit bounds how many read batches may pass while
	// writes wait.
	writesStarvedLimit int = 2
)

// New builds a Block-Deadline scheduler with Linux's default deadlines.
func New(env *sim.Env) core.Scheduler {
	return &Sched{env: env}
}

// Factory is the core.Factory for Block-Deadline.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "block-deadline" }

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s }

// Attach implements core.Scheduler: it publishes the queue gauges.
func (s *Sched) Attach(k *core.Kernel) { s.RegisterGauges(k.Metrics) }

// Add implements block.Elevator.
func (s *Sched) Add(r *block.Request) {
	if r.Deadline == 0 {
		d := defaultWriteDeadline
		if r.Op == device.Read {
			d = defaultReadDeadline
		}
		r.Deadline = s.env.Now().Add(d)
	}
	s.Insert(r)
}

// Next implements block.Elevator: expired requests first, reads before
// writes, then location order.
func (s *Sched) Next(now sim.Time) *block.Request { return s.Pop(now, earliestExpired) }

// Completed implements block.Elevator.
func (s *Sched) Completed(r *block.Request) {}

// Insert queues r by LBA, ahead of any request already queued at its LBA.
func (q *Queues) Insert(r *block.Request) {
	if r.Op == device.Read {
		q.reads = insertByLBA(q.reads, r)
	} else {
		q.writes = insertByLBA(q.writes, r)
	}
}

// Pop removes and returns the next request to dispatch, or nil if none is
// queued: the earliest expired read, else the write at urgent(writes, now)
// unless that is -1, else the next request in location order.
func (q *Queues) Pop(now sim.Time, urgent func(writes []*block.Request, now sim.Time) int) *block.Request {
	if len(q.reads)+len(q.writes) == 0 {
		return nil
	}
	var r *block.Request
	if i := earliestExpired(q.reads, now); i >= 0 {
		q.reads, r = remove(q.reads, i)
	} else if i := urgent(q.writes, now); i >= 0 {
		q.writes, r = remove(q.writes, i)
	} else if len(q.reads) > 0 && (len(q.writes) == 0 || q.writesStarve < writesStarvedLimit) {
		// Location order, reads preferred until writes starve.
		q.reads, r = q.nextByLBA(q.reads)
		if len(q.writes) > 0 {
			q.writesStarve++
		}
	} else {
		q.writes, r = q.nextByLBA(q.writes)
		q.writesStarve = 0
	}
	q.lastLBA = r.LBA + int64(r.Blocks)
	return r
}

// Queued returns the pending (reads, writes).
func (q *Queues) Queued() (int, int) { return len(q.reads), len(q.writes) }

// RegisterGauges publishes the two sorted queues' lengths and how many
// read batches have passed while writes wait.
func (q *Queues) RegisterGauges(r *metrics.Registry) {
	r.Gauge("sched.reads_queued", func() float64 { return float64(len(q.reads)) })
	r.Gauge("sched.writes_queued", func() float64 { return float64(len(q.writes)) })
	r.Gauge("sched.writes_starved", func() float64 { return float64(q.writesStarve) })
}

func insertByLBA(q []*block.Request, r *block.Request) []*block.Request {
	i := sort.Search(len(q), func(i int) bool { return q[i].LBA >= r.LBA })
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = r
	return q
}

// earliestExpired returns the index of the earliest-deadline request in q
// whose deadline has passed, or -1.
func earliestExpired(q []*block.Request, now sim.Time) int {
	best := -1
	for i, r := range q {
		if r.Deadline > now {
			continue
		}
		if best < 0 || r.Deadline < q[best].Deadline {
			best = i
		}
	}
	return best
}

func remove(q []*block.Request, i int) ([]*block.Request, *block.Request) {
	r := q[i]
	copy(q[i:], q[i+1:])
	return q[:len(q)-1], r
}

// nextByLBA pops the request at or after lastLBA (C-SCAN wrap).
func (q *Queues) nextByLBA(rs []*block.Request) ([]*block.Request, *block.Request) {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].LBA >= q.lastLBA })
	if i == len(rs) {
		i = 0
	}
	return remove(rs, i)
}
