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
	"splitio/internal/sim"
)

// Sched is the Block-Deadline scheduler; it is its own elevator.
type Sched struct {
	env *sim.Env

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

// Attach implements core.Scheduler.
func (s *Sched) Attach(k *core.Kernel) {}

// Add implements block.Elevator.
func (s *Sched) Add(r *block.Request) {
	if r.Deadline == 0 {
		d := defaultWriteDeadline
		if r.Op == device.Read {
			d = defaultReadDeadline
		}
		r.Deadline = s.env.Now().Add(d)
	}
	if r.Op == device.Read {
		s.reads = insertByLBA(s.reads, r)
	} else {
		s.writes = insertByLBA(s.writes, r)
	}
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
func (s *Sched) nextByLBA(q []*block.Request) ([]*block.Request, *block.Request) {
	i := sort.Search(len(q), func(i int) bool { return q[i].LBA >= s.lastLBA })
	if i == len(q) {
		i = 0
	}
	return remove(q, i)
}

// Next implements block.Elevator.
func (s *Sched) Next(now sim.Time) *block.Request {
	var r *block.Request
	switch {
	case len(s.reads)+len(s.writes) == 0:
		return nil
	default:
		if i := earliestExpired(s.reads, now); i >= 0 {
			s.reads, r = remove(s.reads, i)
			break
		}
		if i := earliestExpired(s.writes, now); i >= 0 {
			s.writes, r = remove(s.writes, i)
			break
		}
		// No expired deadlines: location order, reads preferred until
		// writes starve.
		if len(s.reads) > 0 && (len(s.writes) == 0 || s.writesStarve < writesStarvedLimit) {
			s.reads, r = s.nextByLBA(s.reads)
			if len(s.writes) > 0 {
				s.writesStarve++
			}
			break
		}
		s.writes, r = s.nextByLBA(s.writes)
		s.writesStarve = 0
	}
	s.lastLBA = r.LBA + int64(r.Blocks)
	return r
}

// Completed implements block.Elevator.
func (s *Sched) Completed(r *block.Request) {}

// Queued returns pending (reads, writes), for tests.
func (s *Sched) Queued() (int, int) { return len(s.reads), len(s.writes) }
