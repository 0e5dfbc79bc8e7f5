// Package causes implements the cross-layer cause tags at the heart of
// split-level scheduling (paper §3.1, §4.1).
//
// A Set identifies the processes responsible for an I/O operation. Because
// metadata is shared and I/O is batched, a single dirty page or block
// request may have several causes, so tags are sets rather than scalars.
// Sets are immutable once built: operations return new sets, so a tag can be
// copied freely between a page, a journal transaction, and a block request
// without aliasing surprises.
package causes

import (
	"fmt"
	"sort"
	"strings"
)

// PID identifies a simulated process.
type PID int

// Set is an immutable, sorted set of cause PIDs. The zero value is the empty
// set.
type Set struct {
	pids []PID
}

// None is the empty cause set.
var None = Set{}

// Of returns the set containing exactly the given pids.
func Of(pids ...PID) Set {
	if len(pids) == 0 {
		return None
	}
	s := append([]PID(nil), pids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, p := range s[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return Set{pids: out}
}

// Len returns the number of causes in the set.
func (s Set) Len() int { return len(s.pids) }

// Empty reports whether the set has no causes.
func (s Set) Empty() bool { return len(s.pids) == 0 }

// Contains reports whether pid is in the set.
func (s Set) Contains(pid PID) bool {
	i := sort.Search(len(s.pids), func(i int) bool { return s.pids[i] >= pid })
	return i < len(s.pids) && s.pids[i] == pid
}

// Union returns the set containing every cause in s or t. It returns s
// itself when t ⊆ s and t when s ⊆ t, so a union that adds nothing to one
// side allocates nothing.
func (s Set) Union(t Set) Set {
	if t.subsetOf(s) {
		return s
	}
	if s.subsetOf(t) {
		return t
	}
	merged := make([]PID, 0, len(s.pids)+len(t.pids))
	i, j := 0, 0
	for i < len(s.pids) && j < len(t.pids) {
		switch {
		case s.pids[i] < t.pids[j]:
			merged = append(merged, s.pids[i])
			i++
		case s.pids[i] > t.pids[j]:
			merged = append(merged, t.pids[j])
			j++
		default:
			merged = append(merged, s.pids[i])
			i++
			j++
		}
	}
	merged = append(merged, s.pids[i:]...)
	merged = append(merged, t.pids[j:]...)
	return Set{pids: merged}
}

// subsetOf reports whether every cause in s is in t.
func (s Set) subsetOf(t Set) bool {
	if len(s.pids) > len(t.pids) {
		return false
	}
	if len(s.pids) == 0 || &s.pids[0] == &t.pids[0] {
		return true // s is empty or a prefix of t's own slice
	}
	j := 0
	for _, p := range s.pids {
		for j < len(t.pids) && t.pids[j] < p {
			j++
		}
		if j == len(t.pids) || t.pids[j] != p {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether s and t contain the same causes.
func (s Set) Equal(t Set) bool {
	if len(s.pids) != len(t.pids) {
		return false
	}
	for i := range s.pids {
		if s.pids[i] != t.pids[i] {
			return false
		}
	}
	return true
}

// PIDs returns the causes in ascending order. The caller must not modify the
// returned slice.
func (s Set) PIDs() []PID { return s.pids }

// Each calls fn for every cause in ascending order.
func (s Set) Each(fn func(PID)) {
	for _, p := range s.pids {
		fn(p)
	}
}

// TagBytes returns the approximate memory footprint of the tag, used for the
// space-overhead accounting in Fig 10 (one word per cause plus a header).
func (s Set) TagBytes() int {
	if s.Empty() {
		return 0
	}
	return 16 + 8*len(s.pids)
}

func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, len(s.pids))
	for i, p := range s.pids {
		parts[i] = fmt.Sprint(int(p))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
