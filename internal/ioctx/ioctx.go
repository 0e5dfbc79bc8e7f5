// Package ioctx defines the per-process I/O identity threaded through every
// layer of the simulated stack: who is doing I/O, at what priority, with
// which deadline settings, billed to which account, and — crucially for the
// split framework — on whose behalf (proxy state, paper §3.1).
package ioctx

import (
	"time"

	"splitio/internal/block"
	"splitio/internal/causes"
	"splitio/internal/trace"
)

// Ctx is the I/O identity of a simulated process or kernel task.
type Ctx struct {
	PID  causes.PID
	Name string

	// Req is the trace request ID of the operation the context is currently
	// performing: the syscall layer stamps it at entry for user processes,
	// and kernel tasks (writeback, journal) stamp it per round, so every
	// span a request fans out into across layers shares one ID. Zero when
	// tracing is disabled.
	Req trace.ReqID

	// Prio is the I/O priority, 0 (highest) to 7 (lowest), as used by CFQ
	// and AFQ.
	Prio int
	// Class is the block-level I/O class.
	Class block.Class

	// Deadline settings (zero means scheduler default). Block-Deadline
	// uses ReadDeadline/WriteDeadline; Split-Deadline uses ReadDeadline/
	// FsyncDeadline (Table 3).
	ReadDeadline  time.Duration
	WriteDeadline time.Duration
	FsyncDeadline time.Duration

	// Account names the token-bucket account this process is billed to
	// ("" = unthrottled).
	Account string

	// proxyFor is non-empty while the process performs I/O on behalf of
	// other processes (writeback, journal tasks).
	proxyFor causes.Set
	// self caches causes.Of(PID). PID is exported and may be reassigned,
	// so Causes checks the cached member on every call.
	self causes.Set
}

// Causes returns the cause set this context's I/O should be tagged with:
// the proxied processes when acting as a proxy, else the process itself.
func (c *Ctx) Causes() causes.Set {
	if !c.proxyFor.Empty() {
		return c.proxyFor
	}
	if pids := c.self.PIDs(); len(pids) != 1 || pids[0] != c.PID {
		c.self = causes.Of(c.PID)
	}
	return c.self
}

// BeginProxy marks the context as acting on behalf of the given causes.
// Calls nest by union; EndProxy clears the state.
func (c *Ctx) BeginProxy(for_ causes.Set) {
	c.proxyFor = c.proxyFor.Union(for_)
}

// EndProxy clears proxy state.
func (c *Ctx) EndProxy() { c.proxyFor = causes.None }

// IsProxy reports whether the context currently proxies for others.
func (c *Ctx) IsProxy() bool { return !c.proxyFor.Empty() }

// Tickets returns the stride-scheduling ticket count for the context's
// priority: priority 0 gets 8 tickets, priority 7 gets 1.
func (c *Ctx) Tickets() int {
	t := 8 - c.Prio
	if t < 1 {
		t = 1
	}
	if t > 8 {
		t = 8
	}
	return t
}
