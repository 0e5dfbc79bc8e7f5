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
		snap.Add("tokens."+a, s.accounts[a].Tokens(s.env.Now()))
	}
	return snap
}
