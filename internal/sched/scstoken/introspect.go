package scstoken

import (
	"sort"

	"splitio/internal/sched"
)

var _ sched.Introspector = (*Sched)(nil)

// Snapshot implements sched.Introspector: per-account token balances (in
// sorted account order, so snapshots are deterministic) plus the inner
// stock elevator's state when it is introspectable.
func (s *Sched) Snapshot() sched.Snap {
	snap := sched.Snap{Name: s.Name()}
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
	if in, ok := s.inner.(sched.Introspector); ok {
		inner := in.Snapshot()
		for _, c := range inner.Counters {
			snap.Add(inner.Name+"."+c.Name, c.Value)
		}
	}
	return snap
}
