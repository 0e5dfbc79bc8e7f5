// Package noop provides the pass-through scheduler: a FIFO elevator with no
// hooks at any level. It is the framework-overhead baseline of Fig 9 — the
// same no-op policy runs in both the block framework and the split
// framework, differing only in whether cross-layer tagging is active (it
// always is in this stack, so the comparison measures tagging cost).
package noop

import (
	"splitio/internal/block"
	"splitio/internal/core"
	"splitio/internal/sim"
)

// Sched is the no-op scheduler.
type Sched struct {
	elv *block.FIFO
}

// New builds a no-op scheduler.
func New(env *sim.Env) core.Scheduler { return &Sched{elv: block.NewFIFO()} }

// Factory is the core.Factory for the no-op scheduler.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "noop" }

// Elevator implements core.Scheduler.
func (s *Sched) Elevator() block.Elevator { return s.elv }

// Attach implements core.Scheduler: it publishes the FIFO's length as
// gauge sched.queued.
func (s *Sched) Attach(k *core.Kernel) {
	k.Metrics.Gauge("sched.queued", func() float64 { return float64(s.elv.Len()) })
}
