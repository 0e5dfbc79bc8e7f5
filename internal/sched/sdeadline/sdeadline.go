// Package sdeadline implements Split-Deadline (paper §5.2): the Linux
// deadline scheduler restructured around the split framework. The
// block-write deadline queue is replaced by an *fsync* deadline queue at the
// system-call level, and the memory-level buffer-dirty hook feeds a cost
// model that estimates what each fsync will force to disk.
//
// The policy: if an fsync would generate so much I/O that other deadlines
// could not be met, the scheduler first spreads that cost by triggering
// asynchronous writeback (no synchronization point, so nothing else waits
// on it) and only issues the fsync when the remaining burst is affordable.
// A write system call is throttled while the written file's own dirty data
// would take longer to flush than half the tightest fsync deadline seen
// (50 ms before the first fsync), which bounds the ordered-mode
// entanglement every commit drags in (Fig 12, Fig 19).
//
// With full control (the default), the scheduler disables pdflush and paces
// writeback itself, eliminating untimely flusher I/O (the paper's
// Split-Deadline line in Fig 19; NewWithPdflush gives the Split-Pdflush
// variant).
//
// At the block level it keeps Block-Deadline's location half
// (bdeadline.Queues): deadline reads, LBA-sorted queues in C-SCAN order and
// bounded write starvation. Only two things differ: writes get no block
// deadline, and fsync-driven writes and journal commits go ahead of async
// writeback.
package sdeadline

import (
	"math/bits"
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/causes"
	"splitio/internal/core"
	"splitio/internal/device"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/sched/bdeadline"
	"splitio/internal/sim"
	"splitio/internal/vfs"
)

type fileStats struct {
	randFrac float64
	lastIdx  int64
	seen     bool
}

type pendingFsync struct {
	pid      causes.PID
	deadline sim.Time
}

// Sched is the Split-Deadline scheduler; it is its own block elevator, on
// Block-Deadline's location queues.
type Sched struct {
	bdeadline.Queues

	env   *sim.Env
	k     *core.Kernel
	layer *block.Layer

	files   map[int64]*fileStats
	pending []*pendingFsync

	randCost time.Duration
	seqCost  time.Duration

	// maxBurst is the device-time budget an fsync may force at once; larger
	// estimated costs are spread via async writeback first.
	maxBurst time.Duration
	// backlogBudget bounds the device time to flush the written file's
	// own dirty data (fileCost) before a write syscall is throttled.
	backlogBudget time.Duration
	// fullControl disables pdflush and paces writeback from the scheduler.
	fullControl bool

	// minDeadline is the tightest fsync deadline observed; maxBurst and
	// backlogBudget shrink with it so no commit can drag in more entangled
	// data than the tightest deadline affords (paper: "waits until the
	// amount of dirty data drops to a point such that other deadlines would
	// not be affected").
	minDeadline time.Duration
}

const (
	// defaultReadDeadline and defaultFsyncDeadline apply when a context has
	// no per-process setting (Table 3).
	defaultReadDeadline  = 50 * time.Millisecond
	defaultFsyncDeadline = 500 * time.Millisecond
)

// New builds a Split-Deadline scheduler with full writeback control.
func New(env *sim.Env) core.Scheduler {
	return &Sched{
		env:           env,
		files:         make(map[int64]*fileStats),
		maxBurst:      25 * time.Millisecond,
		backlogBudget: 50 * time.Millisecond,
		fullControl:   true,
	}
}

// NewWithPdflush builds the Split-Pdflush variant: pdflush keeps running
// and the scheduler only throttles writers (paper §7.1.2).
func NewWithPdflush(env *sim.Env) core.Scheduler {
	s := New(env).(*Sched)
	s.fullControl = false
	return s
}

// Factory is the core.Factory for Split-Deadline (full control).
var Factory core.Factory = New

// PdflushFactory is the core.Factory for the Split-Pdflush variant.
var PdflushFactory core.Factory = NewWithPdflush

// Name implements core.Scheduler.
func (s *Sched) Name() string {
	if s.fullControl {
		return "split-deadline"
	}
	return "split-pdflush"
}

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s }

// Attach implements core.Scheduler. Besides the hooks it publishes the
// location queues, the pending fsync deadlines and the files with a
// randomness estimate as gauges.
func (s *Sched) Attach(k *core.Kernel) {
	s.k = k
	s.layer = k.Block
	s.seqCost = k.SeqPageCost()
	s.randCost = k.RandPageCost()
	s.RegisterGauges(k.Metrics)
	k.Metrics.Gauge("sched.pending_fsyncs", func() float64 { return float64(len(s.pending)) })
	k.Metrics.Gauge("sched.tracked_files", func() float64 { return float64(len(s.files)) })
	k.VFS.SetHooks(vfs.Hooks{
		WriteEntry: s.writeEntry,
		FsyncEntry: s.fsyncEntry,
	})
	k.Cache.SetHooks(cache.MemHooks{
		BufferDirty: s.bufferDirty,
	})
	if s.fullControl {
		k.Cache.SetPdflushEnabled(false)
		k.VFS.ThrottleWrites = false
		k.Cache.SetDirtyRatios(0.9, 0.8)
		k.Env.Go("sdeadline-writeback", s.writebackPacer)
	}
}

// bufferDirty maintains the per-file randomness estimate the cost model
// uses (memory-level accounting: prompt, approximate), page by page in
// index order.
func (s *Sched) bufferDirty(ino, base int64, pages, overwrite uint64, cs causes.Set) {
	st, ok := s.files[ino]
	if !ok {
		st = &fileStats{}
		s.files[ino] = st
	}
	for m := pages; m != 0; m &= m - 1 {
		idx := base + int64(bits.TrailingZeros64(m))
		if st.seen {
			d := idx - st.lastIdx
			if d < 0 {
				d = -d
			}
			isRand := 0.0
			if d > 64 {
				isRand = 1.0
			}
			// float64(...) forces the intermediate rounding so no platform
			// can fuse the multiply-add (identical results on amd64, which
			// never fuses, and arm64, which otherwise would).
			st.randFrac = float64(0.9*st.randFrac) + float64(0.1*isRand)
		}
		st.lastIdx = idx
		st.seen = true
	}
}

// pageCost returns the estimated device time to flush one page of ino.
func (s *Sched) pageCost(ino int64) time.Duration {
	frac := 0.0
	if st, ok := s.files[ino]; ok {
		frac = st.randFrac
	}
	// Explicit rounding of each product keeps the blend FMA-free and
	// bit-identical across architectures.
	rand := float64(frac * float64(s.randCost))
	seq := float64((1 - frac) * float64(s.seqCost))
	return time.Duration(rand + seq)
}

// fsyncCost estimates the device time an fsync of file would force: its own
// dirty pages plus every ordered-mode dependency of the running transaction.
func (s *Sched) fsyncCost(file *fs.File) time.Duration {
	cost := time.Duration(s.k.Cache.FileDirtyPages(file.Ino)) * s.pageCost(file.Ino)
	meta, _ := s.k.FS.RunningTxnInfo()
	// Dependencies: dirty pages of every file in the txn (including this
	// one, already counted above — subtract it).
	for _, ino := range s.k.Cache.DirtyFiles() {
		if ino == file.Ino {
			continue
		}
		cost += time.Duration(s.k.Cache.FileDirtyPages(ino)) * s.pageCost(ino)
	}
	cost += time.Duration(meta+2) * s.seqCost
	return cost
}

// writeEntry throttles a writer when its own file's flush cost would
// endanger deadlines: the split framework controls when writes become
// visible to the file system, preventing orderings that conflict with
// scheduling goals. Cheap writers (a log appender's 4 KB) pass untouched;
// bulk random writers are paced at the drain rate.
func (s *Sched) writeEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
	for s.fileCost(f.Ino) > s.backlogBudget {
		s.k.Cache.FlushAsync(f.Ino)
		if s.fullControl {
			s.k.Cache.Writeback(p, f.Ino, 16)
		}
		p.Sleep(5 * time.Millisecond)
	}
}

// fileCost estimates the device time to flush ino's dirty pages.
func (s *Sched) fileCost(ino int64) time.Duration {
	return time.Duration(s.k.Cache.FileDirtyPages(ino)) * s.pageCost(ino)
}

// fsyncEntry is the fsync-deadline queue: spread oversized bursts via async
// writeback, then release fsyncs in deadline order.
func (s *Sched) fsyncEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File) {
	fd := c.FsyncDeadline
	if fd == 0 {
		fd = defaultFsyncDeadline
	}
	if s.minDeadline == 0 || fd < s.minDeadline {
		s.minDeadline = fd
		s.maxBurst = fd / 4
		s.backlogBudget = fd / 2
	}
	deadline := p.Now().Add(fd)
	// Spread the cost: async writeback has no synchronization point, so
	// other operations never wait on it.
	for s.fsyncCost(f) > s.maxBurst {
		s.k.Cache.FlushAsync(f.Ino)
		if s.fullControl {
			// No pdflush: drain a batch ourselves on this process.
			s.drainOnce(p)
		}
		p.Sleep(2 * time.Millisecond)
		if p.Now() > deadline {
			break // out of slack; issue and accept the overrun
		}
	}
	// EDF release: wait while an earlier-deadline fsync is pending and we
	// still have slack.
	e := &pendingFsync{pid: c.PID, deadline: deadline}
	s.pending = append(s.pending, e)
	defer s.unpend(e)
	cost := s.fsyncCost(f)
	for p.Now() < deadline.Add(-cost) {
		earliest := e
		for _, x := range s.pending {
			if x.deadline < earliest.deadline {
				earliest = x
			}
		}
		if earliest == e {
			return
		}
		p.Sleep(time.Millisecond)
	}
}

func (s *Sched) unpend(e *pendingFsync) {
	for i, x := range s.pending {
		if x == e {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// drainOnce flushes one batch of the oldest dirty file.
func (s *Sched) drainOnce(p *sim.Proc) {
	files := s.k.Cache.DirtyFiles()
	if len(files) == 0 {
		return
	}
	s.k.Cache.Writeback(p, files[0], 16)
}

// writebackPacer replaces pdflush under full control: drain dirty data
// whenever no pending fsync is about to expire, in file-order batches that
// keep the device busy but preemptible.
func (s *Sched) writebackPacer(p *sim.Proc) {
	for {
		if s.k.Cache.DirtyPagesCount() == 0 {
			p.Sleep(5 * time.Millisecond)
			continue
		}
		// Hold off while an urgent fsync is near its deadline.
		urgent := false
		now := p.Now()
		for _, e := range s.pending {
			if e.deadline.Sub(now) < 2*s.maxBurst {
				urgent = true
				break
			}
		}
		if urgent {
			p.Sleep(2 * time.Millisecond)
			continue
		}
		files := s.k.Cache.DirtyFiles()
		if len(files) == 0 {
			p.Sleep(5 * time.Millisecond)
			continue
		}
		if n := s.k.Cache.Writeback(p, files[0], 64); n == 0 {
			p.Sleep(5 * time.Millisecond)
		}
	}
}

// --- Block elevator: deadline reads + location-ordered writes ---

// Add implements block.Elevator: only reads get a default deadline.
func (s *Sched) Add(r *block.Request) {
	if r.Op == device.Read && r.Deadline == 0 {
		r.Deadline = s.env.Now().Add(defaultReadDeadline)
	}
	s.Insert(r)
}

// Next implements block.Elevator: expired reads first (EDF), then sync
// (fsync-driven) writes ahead of async writeback, then location order with
// bounded write starvation.
func (s *Sched) Next(now sim.Time) *block.Request { return s.Pop(now, syncWriteIndex) }

// syncWriteIndex returns the first fsync-driven write, or -1.
func syncWriteIndex(writes []*block.Request, _ sim.Time) int {
	for i, w := range writes {
		if w.Sync && !w.Journal {
			return i
		}
		if w.Journal {
			return i // commit records unblock waiting fsyncs
		}
	}
	return -1
}

// Completed implements block.Elevator.
func (s *Sched) Completed(r *block.Request) {}
