// Flight recorder: a bounded ring of recent trace events plus the last K
// gauge samples, always cheap to maintain, dumped as a deterministic
// JSON post-mortem bundle the first time each kind of invariant trips
// (SLO breach, priority inversion, gc-stall, crash-consistency violation —
// external checkers call TripNow for the kinds the monitor cannot see).

package monitor

import (
	"encoding/json"
	"io"
	"time"

	"splitio/internal/sim"
	"splitio/internal/trace"
)

// RecEvent is the flight recorder's compact rendering of one trace event.
type RecEvent struct {
	At    sim.Time      `json:"at_ns"`
	Dur   time.Duration `json:"dur_ns,omitempty"`
	Layer string        `json:"layer"`
	Op    string        `json:"op"`
	PID   int           `json:"pid"`
	Req   int64         `json:"req"`
	Bytes int64         `json:"bytes,omitempty"`
	Label string        `json:"label,omitempty"`
	Flags string        `json:"flags,omitempty"`
}

type recorder struct {
	cap   int
	ring  []RecEvent
	next  int
	full  bool
	total int64
	dumps []Bundle
}

func (r *recorder) push(ev trace.Event) {
	r.total++
	re := RecEvent{
		At:    ev.Start,
		Layer: ev.Layer.String(),
		Op:    ev.Op,
		PID:   int(ev.PID),
		Req:   int64(ev.Req),
		Bytes: ev.Bytes,
		Label: ev.Label,
	}
	if !ev.Instant() {
		re.Dur = ev.Dur()
	}
	if ev.Flags != 0 {
		re.Flags = ev.Flags.String()
	}
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, re)
		return
	}
	r.ring[r.next] = re
	r.next = (r.next + 1) % r.cap
	r.full = true
}

// recent returns the ring contents oldest-first.
func (r *recorder) recent() []RecEvent {
	if !r.full {
		out := make([]RecEvent, len(r.ring))
		copy(out, r.ring)
		return out
	}
	out := make([]RecEvent, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Bundle is one post-mortem dump: why and when the invariant tripped, every
// SLO breach up to that point, the recent-event ring, and the retained
// gauge samples. Field order is fixed, so marshaling a bundle of
// a deterministic run is byte-identical everywhere.
type Bundle struct {
	Kind       string     `json:"kind"`
	At         sim.Time   `json:"at_ns"`
	Detail     string     `json:"detail"`
	Ticks      int        `json:"ticks"`
	EventsSeen int64      `json:"events_seen"`
	Breaches   []Breach   `json:"breaches,omitempty"`
	Events     []RecEvent `json:"events"`
	Samples    []Sample   `json:"samples,omitempty"`
}

// TripNow captures a post-mortem bundle for kind. Only the first trip per
// kind is kept: later trips of an already-dumped kind are cheap no-ops, so
// a persistent breach cannot grow the dump set without bound.
func (m *Monitor) TripNow(kind, detail string) {
	for _, d := range m.rec.dumps {
		if d.Kind == kind {
			return
		}
	}
	b := Bundle{
		Kind:       kind,
		At:         m.env.Now(),
		Detail:     detail,
		Ticks:      m.ticks,
		EventsSeen: m.rec.total,
		Breaches:   append([]Breach(nil), m.breach...),
		Events:     m.rec.recent(),
		Samples:    append([]Sample(nil), m.samples...),
	}
	m.rec.dumps = append(m.rec.dumps, b)
}

// Dumps returns the captured bundles in trip order.
func (m *Monitor) Dumps() []Bundle { return m.rec.dumps }

// WriteBundles writes every captured bundle as one indented JSON document
// (an array, oldest trip first).
func (m *Monitor) WriteBundles(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.rec.dumps)
}
