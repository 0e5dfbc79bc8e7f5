// Package afq implements AFQ (Actually-Fair Queuing), the paper's split
// priority scheduler (§5.1).
//
// AFQ is a two-level stride scheduler over one shared pass per process:
//
//   - Reads are scheduled at the block level (below the cache, so hits are
//     free) in per-process queues; the lowest-pass process is served, with a
//     short anticipation window to preserve sequential streams.
//   - Writes, fsyncs, and creats are scheduled at the system-call level,
//     before the file system can entangle them in journal transactions.
//     Admission is in pass order, gated by a global dirty budget so the
//     disk — not the write buffer — is the contended resource.
//   - Block-level writes are dispatched immediately (beneath the journal,
//     low-priority blocks may be prerequisites of high-priority fsyncs).
//
// Whenever a block request completes, AFQ charges the *causes* of the
// request (split tags), not the submitter, so delegated writeback and
// journal I/O bill the processes that created the work. This single change
// is what makes the scheduler "actually" fair (Fig 3 vs Fig 11).
package afq

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/stride"
	"splitio/internal/vfs"
)

type gateKind int

const (
	gateWrite gateKind = iota
	gateFsync
	gateCreat
)

type gateWaiter struct {
	pid      causes.PID
	class    block.Class
	kind     gateKind
	admitted *sim.Completion
}

// Sched is the AFQ scheduler; it is its own block elevator.
type Sched struct {
	env   *sim.Env
	k     *core.Kernel
	st    *stride.Stride
	layer *block.Layer

	// Block level.
	readQs     map[causes.PID][]*block.Request
	writeQ     []*block.Request
	anticipate causes.PID
	idleUntil  sim.Time

	// Syscall-level admission gate.
	waiters     []*gateWaiter
	fsyncsOut   int
	lastBEWrite sim.Time

	// Sync-pressure tracking for device background-work gating (the
	// gc-afq variant): Sync requests inside the block layer and when the
	// last one completed.
	syncInFlight int
	lastSyncDone sim.Time

	// Writeback control: AFQ disables pdflush and drains dirty data itself
	// in stride order (paper: schedulers "can take complete control of the
	// writeback").
	fileOwner  map[int64]causes.PID
	ownerFiles map[causes.PID][]int64
}

const (
	// perProcDirty caps each process's own dirty bytes before its write
	// admission blocks; the stride-ordered drain then paces admissions.
	perProcDirty int64 = 16 << 20
	// maxFsyncsOut bounds concurrently admitted fsyncs.
	maxFsyncsOut int = 1
	// idleWindow is the block-level read anticipation window.
	idleWindow = time.Millisecond
	// idleGrace is how long best-effort activity blocks idle-class writes.
	idleGrace = 100 * time.Millisecond
)

// New builds an AFQ scheduler.
func New(env *sim.Env) core.Scheduler {
	return &Sched{
		env:        env,
		st:         stride.New(),
		readQs:     make(map[causes.PID][]*block.Request),
		fileOwner:  make(map[int64]causes.PID),
		ownerFiles: make(map[causes.PID][]int64),
	}
}

// Factory is the core.Factory for AFQ.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "afq" }

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s }

// Attach implements core.Scheduler. Besides the hooks it publishes both
// levels of the split scheduler as gauges: block-level queue state and the
// syscall-level admission gate.
func (s *Sched) Attach(k *core.Kernel) {
	s.k = k
	s.layer = k.Block
	s.registerGauges(k.Metrics)
	// AFQ's admission gate replaces the kernel's dirty-ratio throttling:
	// proportional admission must be the binding constraint.
	k.VFS.ThrottleWrites = false
	k.VFS.SetHooks(vfs.Hooks{
		WriteEntry: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
			s.gate(p, c, gateWrite)
		},
		FsyncEntry: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File) {
			s.gate(p, c, gateFsync)
		},
		FsyncExit: func(p *sim.Proc, c *ioctx.Ctx, f *fs.File, took time.Duration) {
			s.fsyncsOut--
			s.pump()
		},
		CreatEntry: func(p *sim.Proc, c *ioctx.Ctx, path string) {
			s.gate(p, c, gateCreat)
		},
	})
	k.Cache.SetHooks(cache.MemHooks{
		BufferDirty: s.bufferDirty,
		BufferFree:  func(ino, base int64, freed uint64) { s.pump() },
	})
	// AFQ drains writeback itself, in stride order.
	k.Cache.SetPdflushEnabled(false)
	k.Env.Go("afq-writeback", s.writebackPacer)
}

// registerGauges publishes the read queues, the write queue and the
// admission gate's waiters and outstanding sync work under sched.
func (s *Sched) registerGauges(r *metrics.Registry) {
	r.Gauge("sched.reads_queued", func() float64 {
		n := 0
		for _, q := range s.readQs {
			n += len(q)
		}
		return float64(n)
	})
	r.Gauge("sched.read_queues", func() float64 {
		n := 0
		for _, q := range s.readQs {
			if len(q) > 0 {
				n++
			}
		}
		return float64(n)
	})
	r.Gauge("sched.writes_queued", func() float64 { return float64(len(s.writeQ)) })
	r.Gauge("sched.gate_waiters", func() float64 { return float64(len(s.waiters)) })
	r.Gauge("sched.fsyncs_out", func() float64 { return float64(s.fsyncsOut) })
	r.Gauge("sched.sync_inflight", func() float64 { return float64(s.syncInFlight) })
}

// bufferDirty attributes dirty files to their first user-process cause so
// the pacer knows whose data to drain next. A file with no owner yet has no
// user process in any page's causes, so the writer's causes alone decide.
func (s *Sched) bufferDirty(ino, base int64, pages, overwrite uint64, cs causes.Set) {
	if _, ok := s.fileOwner[ino]; ok {
		return
	}
	for _, pid := range cs.PIDs() {
		if pid >= 100 { // user processes
			s.fileOwner[ino] = pid
			s.ownerFiles[pid] = append(s.ownerFiles[pid], ino)
			return
		}
	}
}

// ownDirty returns pid's attributed dirty bytes.
func (s *Sched) ownDirty(pid causes.PID) int64 {
	var total int64
	for _, ino := range s.ownerFiles[pid] {
		total += s.k.Cache.FileDirtyBytes(ino)
	}
	return total
}

// writebackPacer drains dirty data in stride order: the lowest-pass process
// with dirty data is drained first, so disk time for buffered writes is
// allocated proportionally to tickets.
func (s *Sched) writebackPacer(p *sim.Proc) {
	for {
		pid, ok := s.st.PickMin(func(id int64) bool {
			return s.ownDirty(causes.PID(id)) > 0 && s.drainable(causes.PID(id))
		})
		if !ok {
			// Orphan dirty data (kernel-attributed): drain round-robin.
			files := s.k.Cache.DirtyFiles()
			if len(files) == 0 {
				p.Sleep(5 * time.Millisecond)
				continue
			}
			s.k.Cache.Writeback(p, files[0], 256)
			s.pump()
			continue
		}
		// Drain the chosen process's largest dirty file.
		var best int64
		var bestN int64
		for _, ino := range s.ownerFiles[causes.PID(pid)] {
			if n := s.k.Cache.FileDirtyPages(ino); n > bestN {
				best, bestN = ino, n
			}
		}
		if bestN == 0 {
			p.Sleep(time.Millisecond)
			continue
		}
		if n := s.k.Cache.Writeback(p, best, 256); n == 0 {
			p.Sleep(time.Millisecond)
		}
		s.pump()
	}
}

// drainable reports whether pid's dirty data may be written back now:
// idle-class data is held while best-effort processes are active, so a
// burst from an idle process never pollutes the disk (the Fig 1 fix).
func (s *Sched) drainable(pid causes.PID) bool {
	pr, ok := s.k.VFS.Process(pid)
	if !ok || pr.Ctx.Class != block.ClassIdle {
		return true
	}
	return s.env.Now().Sub(s.lastBEWrite) >= idleGrace
}

func (s *Sched) ensure(c *ioctx.Ctx) {
	s.st.Ensure(int64(c.PID), c.Tickets())
}

// gate blocks the caller until AFQ admits its write-side system call.
func (s *Sched) gate(p *sim.Proc, c *ioctx.Ctx, kind gateKind) {
	s.ensure(c)
	if c.Class != block.ClassIdle {
		s.lastBEWrite = s.env.Now()
	}
	w := &gateWaiter{pid: c.PID, class: c.Class, kind: kind, admitted: sim.NewCompletion(s.env)}
	s.waiters = append(s.waiters, w)
	s.pump()
	if !w.admitted.Done() {
		// Re-evaluate periodically in case no event-driven pump fires
		// (e.g. idle-class grace expiry).
		stop := false
		tick := func() {}
		tick = func() {
			if stop || w.admitted.Done() {
				return
			}
			s.pump()
			s.env.Schedule(5*time.Millisecond, tick)
		}
		s.env.Schedule(5*time.Millisecond, tick)
		w.admitted.Wait(p)
		stop = true
	}
}

// admissible reports whether waiter w may proceed right now.
func (s *Sched) admissible(w *gateWaiter) bool {
	if w.class == block.ClassIdle {
		// Idle-class writes run only when the system is otherwise quiet:
		// no best-effort writer activity recently and nothing queued.
		if s.env.Now().Sub(s.lastBEWrite) < idleGrace {
			return false
		}
		if s.k.Cache.DirtyPagesCount() > 0 {
			return false
		}
	}
	switch w.kind {
	case gateWrite:
		return s.ownDirty(w.pid) < perProcDirty
	case gateFsync:
		return s.fsyncsOut < maxFsyncsOut
	default:
		return true
	}
}

// pump admits eligible waiters in pass order.
func (s *Sched) pump() {
	for len(s.waiters) > 0 {
		// Find the waiting process with the lowest pass whose admission
		// condition holds; stop at the first blocked min to preserve pass
		// ordering within each kind.
		best := -1
		for i, w := range s.waiters {
			if best < 0 || s.st.Pass(int64(w.pid)) < s.st.Pass(int64(s.waiters[best].pid)) {
				best = i
			}
		}
		w := s.waiters[best]
		if !s.admissible(w) {
			// Try the next-best admissible waiter of a different kind — so a
			// blocked fsync does not stall admissible writes forever — or a
			// different class: an idle-class waiter held for quiet time must
			// not block best-effort admission behind its (tiny) pass, or the
			// idle process would induce exactly the priority inversion the
			// class exists to prevent.
			alt := -1
			for i, x := range s.waiters {
				if (x.kind != w.kind || x.class != w.class) && s.admissible(x) {
					if alt < 0 || s.st.Pass(int64(x.pid)) < s.st.Pass(int64(s.waiters[alt].pid)) {
						alt = i
					}
				}
			}
			if alt < 0 {
				return
			}
			best, w = alt, s.waiters[alt]
		}
		s.waiters = append(s.waiters[:best], s.waiters[best+1:]...)
		if w.kind == gateFsync {
			// Account at admission time: the waiter has not resumed yet,
			// and a second fsync must not slip past the bound meanwhile.
			s.fsyncsOut++
		}
		w.admitted.Complete()
	}
}

// Add implements block.Elevator: reads queue per process, writes dispatch
// immediately.
func (s *Sched) Add(r *block.Request) {
	if r.Class != block.ClassIdle && r.Submitter >= 100 && !r.Journal {
		s.lastBEWrite = s.env.Now()
	}
	if r.Sync {
		s.syncInFlight++
	}
	if r.Op == device.Write {
		s.writeQ = append(s.writeQ, r)
		return
	}
	pid := ownerOf(r)
	s.st.Ensure(int64(pid), ioctx.TicketsFor(r.Prio))
	s.readQs[pid] = append(s.readQs[pid], r)
}

// ownerOf maps a request to the process AFQ bills and queues it under:
// the first cause (reads have exactly one), falling back to the submitter.
func ownerOf(r *block.Request) causes.PID {
	if !r.Causes.Empty() {
		return r.Causes.PIDs()[0]
	}
	return r.Submitter
}

// Next implements block.Elevator.
func (s *Sched) Next(now sim.Time) *block.Request {
	// Writes go out immediately: beneath the journal, reordering them can
	// only invert priorities.
	if len(s.writeQ) > 0 {
		r := s.writeQ[0]
		copy(s.writeQ, s.writeQ[1:])
		s.writeQ = s.writeQ[:len(s.writeQ)-1]
		return r
	}
	picked, ok := s.st.PickMin(func(id int64) bool {
		return len(s.readQs[causes.PID(id)]) > 0
	})
	if !ok {
		return nil
	}
	pid := causes.PID(picked)
	// Anticipation: if the process we just served has lower pass and its
	// next sequential read is about to arrive, hold the disk briefly.
	if now < s.idleUntil && s.anticipate != pid &&
		len(s.readQs[s.anticipate]) == 0 &&
		s.st.Pass(int64(s.anticipate)) <= s.st.Pass(int64(pid)) {
		return nil
	}
	q := s.readQs[pid]
	r := q[0]
	copy(q, q[1:])
	s.readQs[pid] = q[:len(q)-1]
	return r
}

// Completed implements block.Elevator: charge the causes for the device
// time and arm read anticipation.
func (s *Sched) Completed(r *block.Request) {
	if r.Sync {
		s.syncInFlight--
		s.lastSyncDone = s.env.Now()
	}
	cs := r.Causes
	n := cs.Len()
	if n == 0 {
		s.st.Charge(int64(r.Submitter), r.Service.Seconds())
	} else {
		share := r.Service.Seconds() / float64(n)
		cs.Each(func(pid causes.PID) { s.st.Charge(int64(pid), share) })
	}
	if r.Op == device.Read {
		pid := ownerOf(r)
		if len(s.readQs[pid]) == 0 {
			s.anticipate = pid
			s.idleUntil = s.env.Now().Add(idleWindow)
			if s.layer != nil {
				s.env.Schedule(idleWindow, s.layer.Kick)
			}
		}
	}
	s.pump()
}

// Pass exposes a process's pass value, for tests.
func (s *Sched) Pass(pid causes.PID) float64 { return s.st.Pass(int64(pid)) }

// SyncPressure reports whether serving device background work right now
// could stall a sync request: one is queued or in flight at the block
// level, an admitted fsync is still between its entry and exit hooks, or a
// sync request completed within the last grace (the next one of a
// continuous fsync stream is imminent). The gc-afq variant feeds this to
// the FTL SSD's GC gate.
func (s *Sched) SyncPressure(grace time.Duration) bool {
	if s.syncInFlight > 0 || s.fsyncsOut > 0 {
		return true
	}
	return s.env.Now().Sub(s.lastSyncDone) < grace
}
