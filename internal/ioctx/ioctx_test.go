package ioctx

import (
	"testing"

	"splitio/internal/causes"
)

func TestCausesSelf(t *testing.T) {
	c := &Ctx{PID: 42}
	if !c.Causes().Equal(causes.Of(42)) {
		t.Fatalf("Causes = %v, want {42}", c.Causes())
	}
	if n := testing.AllocsPerRun(100, func() { c.Causes() }); n != 0 {
		t.Fatalf("Causes allocates %v times per call after the first", n)
	}
	c.PID = 7
	if !c.Causes().Equal(causes.Of(7)) {
		t.Fatalf("Causes after PID = 7 is %v, want {7}", c.Causes())
	}
}

func TestProxy(t *testing.T) {
	c := &Ctx{PID: 1, Name: "pdflush"}
	c.BeginProxy(causes.Of(10, 11))
	if !c.IsProxy() {
		t.Fatal("IsProxy false")
	}
	if !c.Causes().Equal(causes.Of(10, 11)) {
		t.Fatalf("proxy causes = %v", c.Causes())
	}
	// Nested proxying unions.
	c.BeginProxy(causes.Of(12))
	if !c.Causes().Equal(causes.Of(10, 11, 12)) {
		t.Fatalf("nested proxy causes = %v", c.Causes())
	}
	c.EndProxy()
	if c.IsProxy() {
		t.Fatal("EndProxy did not clear")
	}
	if !c.Causes().Equal(causes.Of(1)) {
		t.Fatalf("causes after EndProxy = %v", c.Causes())
	}
}

func TestTickets(t *testing.T) {
	for prio, want := range map[int]int{0: 8, 4: 4, 7: 1, -1: 8, 9: 1} {
		c := &Ctx{Prio: prio}
		if got := c.Tickets(); got != want {
			t.Fatalf("Tickets(prio=%d) = %d, want %d", prio, got, want)
		}
	}
}
