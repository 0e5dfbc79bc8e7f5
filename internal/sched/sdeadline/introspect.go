package sdeadline

import "splitio/internal/sched"

var _ sched.Introspector = (*Sched)(nil)

// Snapshot implements sched.Introspector. Name() distinguishes the
// split-deadline and split-pdflush variants, so one implementation covers
// both registered schedulers.
func (s *Sched) Snapshot() sched.Snap {
	snap := sched.Snap{Name: s.Name()}
	reads, writes := s.Queued()
	snap.AddInt("reads_queued", reads)
	snap.AddInt("writes_queued", writes)
	snap.AddInt("pending_fsyncs", len(s.pending))
	snap.AddInt("tracked_files", len(s.files))
	snap.AddInt("writes_starved", s.WritesStarved())
	return snap
}
