package stoken

import (
	"sort"

	"splitio/internal/sched"
)

var _ sched.Introspector = (*Sched)(nil)

// Snapshot implements sched.Introspector: block-level queues, outstanding
// preliminary charges awaiting block-level revision, and per-account token
// balances in sorted account order.
func (s *Sched) Snapshot() sched.Snap {
	snap := sched.Snap{Name: s.Name()}
	snap.AddInt("reads_queued", len(s.readQ))
	snap.AddInt("writes_queued", len(s.writeQ))
	snap.AddInt("prelim_charges", s.nprelim)
	names := make([]string, 0, len(s.accounts))
	for a := range s.accounts {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		// Read a copy: Tokens refills the bucket it is called on, and a
		// refill split at a snapshot instant rounds later balances
		// differently, so an observed run would diverge from an unobserved
		// one.
		b := *s.accounts[a]
		snap.Add("tokens."+a, b.Tokens(s.env.Now()))
	}
	return snap
}
