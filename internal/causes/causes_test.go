package causes

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOfDedupAndSort(t *testing.T) {
	s := Of(5, 1, 3, 1, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	pids := s.PIDs()
	want := []PID{1, 3, 5}
	for i := range want {
		if pids[i] != want[i] {
			t.Fatalf("PIDs = %v, want %v", pids, want)
		}
	}
}

func TestEmpty(t *testing.T) {
	if !None.Empty() || None.Len() != 0 {
		t.Fatal("None is not empty")
	}
	if None.Contains(1) {
		t.Fatal("empty set contains 1")
	}
	if None.String() != "{}" {
		t.Fatalf("String = %q", None.String())
	}
	if None.TagBytes() != 0 {
		t.Fatalf("TagBytes = %d, want 0", None.TagBytes())
	}
	if !Of().Equal(Set{}) {
		t.Fatal("Of() != zero set")
	}
}

func TestContains(t *testing.T) {
	s := Of(2, 4, 6)
	for _, p := range []PID{2, 4, 6} {
		if !s.Contains(p) {
			t.Fatalf("missing %d", p)
		}
	}
	for _, p := range []PID{1, 3, 5, 7} {
		if s.Contains(p) {
			t.Fatalf("spurious %d", p)
		}
	}
}

func TestUnion(t *testing.T) {
	a := Of(1, 3)
	b := Of(2, 3, 4)
	u := a.Union(b)
	want := Of(1, 2, 3, 4)
	if !u.Equal(want) {
		t.Fatalf("union = %v, want %v", u, want)
	}
	if !a.Union(None).Equal(a) || !None.Union(a).Equal(a) {
		t.Fatal("union with empty broken")
	}
}

// TestUnionReturnsCoveringOperand checks that a union one operand covers is
// that operand itself, not a merged copy, so it allocates nothing.
func TestUnionReturnsCoveringOperand(t *testing.T) {
	same := func(a, b Set) bool { return &a.PIDs()[0] == &b.PIDs()[0] }
	s, sub, eq := Of(1, 3, 5), Of(3, 5), Of(1, 3, 5)
	for _, c := range []struct {
		name      string
		got, want Set
	}{
		{"s ∪ subset", s.Union(sub), s},
		{"subset ∪ s", sub.Union(s), s},
		{"s ∪ equal", s.Union(eq), s},
		{"s ∪ None", s.Union(None), s},
		{"None ∪ s", None.Union(s), s},
	} {
		if !same(c.got, c.want) {
			t.Errorf("%s = %v, not the covering operand %v", c.name, c.got, c.want)
		}
	}
	if u := s.Union(Of(2, 3)); !u.Equal(Of(1, 2, 3, 5)) || same(u, s) {
		t.Fatalf("s ∪ {2,3} = %v, want a new set {1,2,3,5}", u)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Union(sub) }); allocs != 0 {
		t.Fatalf("covered union allocated %.0f objects, want 0", allocs)
	}
}

func TestUnionImmutable(t *testing.T) {
	a := Of(1, 2)
	b := Of(3)
	_ = a.Union(b)
	if a.Len() != 2 || b.Len() != 1 {
		t.Fatal("union mutated operands")
	}
}

func TestString(t *testing.T) {
	if got := Of(3, 1).String(); got != "{1,3}" {
		t.Fatalf("String = %q, want {1,3}", got)
	}
}

func TestTagBytesGrowsWithSetSize(t *testing.T) {
	if Of(1).TagBytes() >= Of(1, 2, 3).TagBytes() {
		t.Fatal("TagBytes not monotone in set size")
	}
}

func TestUnionProperties(t *testing.T) {
	gen := func(r *rand.Rand) Set {
		n := r.Intn(6)
		pids := make([]PID, n)
		for i := range pids {
			pids[i] = PID(r.Intn(10))
		}
		return Of(pids...)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatal("union not commutative")
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			t.Fatal("union not associative")
		}
		if !a.Union(a).Equal(a) {
			t.Fatal("union not idempotent")
		}
		u := a.Union(b)
		for _, p := range a.PIDs() {
			if !u.Contains(p) {
				t.Fatal("union lost element")
			}
		}
	}
}

func TestOfQuick(t *testing.T) {
	f := func(raw []int8) bool {
		pids := make([]PID, len(raw))
		for i, v := range raw {
			pids[i] = PID(v)
		}
		s := Of(pids...)
		// Sorted, unique, and contains every input.
		prev := PID(-1 << 30)
		for _, p := range s.PIDs() {
			if p <= prev {
				return false
			}
			prev = p
		}
		for _, p := range pids {
			if !s.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
