// Package gcafq implements GC-AFQ, the GC-aware variant of the AFQ split
// scheduler. It is AFQ plus one split-level hook: on an FTL SSD it closes
// the device's garbage-collection gate whenever sync requests are queued,
// in flight, or imminent (an fsync stream between admissions), deferring
// victim-block migrations to idle periods. Collection still proceeds
// unconditionally when the free pool reaches the critical watermark — the
// device's integrity beats latency.
//
// The point of the variant is the contrast in `splitbench gcsweep`:
// block-level schedulers (and plain AFQ) let background GC hold a die
// while a high-priority fsync needs it — the gc-stall inversion the attr
// detector flags — while GC-AFQ runs the same aged device clean. Deferring
// GC is only safe to express at the split level: the scheduler must see
// fsync admissions (syscall layer) and sync queue state (block layer) at
// once to know the device should hold off.
package gcafq

import (
	"time"

	"splitio/internal/core"
	"splitio/internal/sched/afq"
	"splitio/internal/sim"
	"splitio/internal/ssd"
)

// Sched is AFQ with the device GC gate wired to sync pressure.
type Sched struct {
	*afq.Sched
}

// gcGrace is how long after the last sync completion the gate stays
// closed, bridging the sub-millisecond gaps of a continuous fsync
// stream so GC cannot start a multi-millisecond migration inside one.
const gcGrace = 10 * time.Millisecond

// New builds a GC-AFQ scheduler.
func New(env *sim.Env) core.Scheduler {
	return &Sched{Sched: afq.New(env).(*afq.Sched)}
}

// Factory is the core.Factory for GC-AFQ.
var Factory core.Factory = New

// Name implements core.Scheduler.
func (s *Sched) Name() string { return "gc-afq" }

// Attach implements core.Scheduler: attach AFQ, then close the FTL's GC
// gate under sync pressure. On non-FTL disks GC-AFQ degenerates to AFQ.
func (s *Sched) Attach(k *core.Kernel) {
	s.Sched.Attach(k)
	if d, ok := k.Disk.(*ssd.Device); ok {
		d.SetGCGate(func() bool { return !s.SyncPressure(gcGrace) })
	}
}
