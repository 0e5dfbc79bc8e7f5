package gcafq

import "splitio/internal/sched"

var _ sched.Introspector = (*Sched)(nil)

// Snapshot implements sched.Introspector: the embedded AFQ snapshot renamed
// to this variant, plus the state of the GC gate it drives.
func (s *Sched) Snapshot() sched.Snap {
	snap := s.Sched.Snapshot()
	snap.Name = s.Name()
	open := 1
	if s.SyncPressure(gcGrace) {
		open = 0
	}
	snap.AddInt("gc_gate_open", open)
	return snap
}
