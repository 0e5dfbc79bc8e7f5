// Package scstoken implements SCS-Token, the system-call-scheduling token
// bucket of Craciunas et al. that the paper uses as its resource-limit
// baseline (§2.3.3, §5.3).
//
// All scheduling happens at the system-call level: every read and write of a
// throttled process is charged its raw byte count and blocked until the
// account balance is non-negative. Faithfully reproduced flaws:
//
//   - costs are raw bytes, so random I/O is charged the same as sequential
//     and the throttle underestimates expensive patterns (Fig 6);
//   - buffer overwrites are charged like new writes, so memory-bound write
//     workloads are throttled for I/O they never cause (Fig 14 write-mem);
//   - the token logic runs on every system call, taxing cache-hit reads
//     (Fig 14 read-mem). Cache hits themselves are not charged — SCS
//     modified the file system to detect them, modeled here with a cache
//     peek.
package scstoken

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/ioctx"
	"splitio/internal/sched/cfq"
	"splitio/internal/sim"
	"splitio/internal/tokenbucket"
	"splitio/internal/vfs"
)

// Sched is the SCS-Token scheduler. All of its own logic lives at the
// system-call level; the block level below runs an unmodified CFQ, exactly
// as a system-call scheduling framework leaves the kernel's default
// elevator in place.
type Sched struct {
	env      *sim.Env
	k        *core.Kernel
	inner    core.Scheduler // the stock block-level elevator (CFQ)
	accounts map[string]*tokenbucket.Bucket
}

const (
	// perCallCPU is the token-logic CPU cost added to every intercepted
	// system call.
	perCallCPU = 1500 * time.Nanosecond
	// perPageCPU is the cost of SCS's per-page cache-hit detection on the
	// read path (the file-system modification Craciunas et al. needed runs
	// for every page of every read). This is what makes cache-hit reads
	// ~2x slower under SCS than under split scheduling (Fig 14 read-mem).
	perPageCPU = 400 * time.Nanosecond
)

// New builds an SCS-Token scheduler with no accounts configured.
func New(env *sim.Env) core.Scheduler {
	return &Sched{
		env:      env,
		inner:    cfq.New(env),
		accounts: make(map[string]*tokenbucket.Bucket),
	}
}

// Factory is the core.Factory for SCS-Token.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "scs-token" }

// Elevator implements core.Scheduler: SCS does no block-level scheduling
// of its own, so the kernel's stock CFQ elevator runs underneath.
func (s *Sched) Elevator() block.Elevator { return s.inner.Elevator() }

// SetLimit creates (or replaces) an account refilled at rate bytes/second
// with burst capacity cap bytes.
func (s *Sched) SetLimit(account string, rate, cap float64) {
	s.accounts[account] = tokenbucket.New(rate, cap)
}

// Tokens returns the account balance, for tests and reports.
func (s *Sched) Tokens(account string) float64 {
	b, ok := s.accounts[account]
	if !ok {
		return 0
	}
	return b.Tokens(s.env.Now())
}

// Attach implements core.Scheduler: register syscall hooks and wire the
// stock elevator.
func (s *Sched) Attach(k *core.Kernel) {
	s.k = k
	s.inner.Attach(k)
	k.VFS.SetHooks(vfs.Hooks{
		ReadEntry:  s.readEntry,
		WriteEntry: s.writeEntry,
		FsyncEntry: s.fsyncEntry,
	})
}

func (s *Sched) bucket(c *ioctx.Ctx) *tokenbucket.Bucket {
	if c.Account == "" {
		return nil
	}
	return s.accounts[c.Account]
}

// waitPositive blocks until the bucket balance is non-negative.
func (s *Sched) waitPositive(p *sim.Proc, b *tokenbucket.Bucket) {
	for !b.Positive(p.Now()) {
		d := b.UntilPositive(p.Now())
		if d < 100*time.Microsecond {
			d = 100 * time.Microsecond
		}
		p.Sleep(d)
	}
}

// allCached reports whether the whole range is resident (SCS's cache-hit
// test, which required file-system modification in the original system).
func (s *Sched) allCached(f *fs.File, off, n int64) bool {
	first := off / cache.PageSize
	last := (off + n - 1) / cache.PageSize
	for idx := first; idx <= last; idx++ {
		if !s.k.Cache.Peek(f.Ino, idx) {
			return false
		}
	}
	return true
}

func (s *Sched) readEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
	pages := (n + cache.PageSize - 1) / cache.PageSize
	s.k.CPU.Use(p, perCallCPU+time.Duration(pages)*perPageCPU)
	b := s.bucket(c)
	if b == nil {
		return
	}
	if s.allCached(f, off, n) {
		return
	}
	b.Charge(p.Now(), float64(n))
	s.waitPositive(p, b)
}

func (s *Sched) writeEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File, off, n int64) {
	s.k.CPU.Use(p, perCallCPU)
	b := s.bucket(c)
	if b == nil {
		return
	}
	// Raw bytes, no overwrite detection, no randomness model: the
	// system-call level simply cannot know better.
	b.Charge(p.Now(), float64(n))
	s.waitPositive(p, b)
}

func (s *Sched) fsyncEntry(p *sim.Proc, c *ioctx.Ctx, f *fs.File) {
	s.k.CPU.Use(p, perCallCPU)
	b := s.bucket(c)
	if b == nil {
		return
	}
	s.waitPositive(p, b)
}
