package tokenbucket

import (
	"math"
	"testing"
	"time"

	"splitio/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(d) }

func TestStartsFull(t *testing.T) {
	b := New(100, 50)
	if got := b.Tokens(0); got != 50 {
		t.Fatalf("initial tokens = %v, want cap", got)
	}
}

func TestRefillRate(t *testing.T) {
	b := New(100, 1000)
	b.Charge(0, 1000) // drain to 0
	got := b.Tokens(at(time.Second))
	if math.Abs(got-100) > 1e-6 {
		t.Fatalf("tokens after 1s = %v, want 100", got)
	}
}

func TestCapEnforced(t *testing.T) {
	b := New(100, 50)
	if got := b.Tokens(at(time.Hour)); got != 50 {
		t.Fatalf("tokens = %v, want capped at 50", got)
	}
}

func TestNegativeBalance(t *testing.T) {
	b := New(100, 50)
	b.Charge(0, 150)
	if b.Positive(0) {
		t.Fatal("should be negative")
	}
	if got := b.Tokens(0); got != -100 {
		t.Fatalf("tokens = %v, want -100", got)
	}
}

func TestUntilPositive(t *testing.T) {
	b := New(100, 50)
	b.Charge(0, 150) // -100 tokens, rate 100/s -> 1s
	got := b.UntilPositive(0)
	if math.Abs(float64(got-time.Second)) > float64(time.Millisecond) {
		t.Fatalf("UntilPositive = %v, want ~1s", got)
	}
	if b.UntilPositive(at(2*time.Second)) != 0 {
		t.Fatal("should be positive after refill")
	}
}

func TestUntilPositiveZeroRate(t *testing.T) {
	b := New(0, 10)
	b.Charge(0, 20)
	if b.UntilPositive(0) <= 0 {
		t.Fatal("zero-rate bucket should report a long wait")
	}
}

func TestRefund(t *testing.T) {
	b := New(100, 50)
	b.Charge(0, 60) // -10
	b.Refund(0, 10)
	if got := b.Tokens(0); got != 0 {
		t.Fatalf("tokens after refund = %v, want 0", got)
	}
	b.Refund(0, 1000)
	if got := b.Tokens(0); got != 50 {
		t.Fatalf("refund should cap at %v, got %v", 50.0, got)
	}
}

func TestMonotoneClock(t *testing.T) {
	b := New(100, 100)
	b.Charge(at(time.Second), 10)
	// An earlier timestamp must not rewind the refill clock.
	if got := b.Tokens(0); got != 90 {
		t.Fatalf("tokens = %v, want 90", got)
	}
}

func TestWait(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	b := New(1000, 1000)
	b.Charge(0, 1500) // 500 in debt: non-negative again at 0.5 s
	var woke, quick sim.Time
	env.Go("debtor", func(p *sim.Proc) {
		b.Wait(p)
		woke = p.Now()
		b.Charge(p.Now(), 0.01) // due in 10 µs, but waits at least 100 µs
		b.Wait(p)
		quick = p.Now()
	})
	env.RunAll()
	if woke != at(500*time.Millisecond) {
		t.Fatalf("woke at %v, want 500ms", woke)
	}
	if quick != woke.Add(100*time.Microsecond) {
		t.Fatalf("short wait ended at %v, want %v", quick, woke.Add(100*time.Microsecond))
	}
}
