// Package tokenbucket implements the continuous-refill token bucket used by
// SCS-Token and Split-Token (paper §5.3). Tokens represent normalized bytes;
// a bucket may go negative (charges are applied when the cost is learned,
// possibly after the fact), and throttled work waits until the balance is
// non-negative again.
package tokenbucket

import (
	"time"

	"splitio/internal/sim"
)

// Bucket is a token bucket with continuous refill.
type Bucket struct {
	rate   float64 // tokens per second
	cap    float64 // maximum balance
	tokens float64
	last   sim.Time
}

// New returns a bucket refilled at rate tokens/second, holding at most cap
// tokens, starting full.
func New(rate, cap float64) *Bucket {
	return &Bucket{rate: rate, cap: cap, tokens: cap}
}

// refill advances the balance to now.
func (b *Bucket) refill(now sim.Time) {
	if now <= b.last {
		return
	}
	// Token balances are float64 by design (the split schedulers charge
	// fractional shares); every operation is exactly rounded IEEE-754 and
	// the accumulation order is fixed by the deterministic event order, so
	// results are platform-identical. float64(...) forces the product to
	// round before the add so no architecture fuses it into an FMA.
	//splitlint:ignore floatdet reviewed: exactly-rounded ops in deterministic order; product explicitly rounded to preclude FMA
	b.tokens += float64(b.rate * now.Sub(b.last).Seconds())
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.last = now
}

// Tokens returns the balance at now.
func (b *Bucket) Tokens(now sim.Time) float64 {
	b.refill(now)
	return b.tokens
}

// Charge deducts n tokens at now; the balance may go negative.
func (b *Bucket) Charge(now sim.Time, n float64) {
	b.refill(now)
	//splitlint:ignore floatdet reviewed: single exactly-rounded subtraction; order fixed by deterministic event order
	b.tokens -= n
}

// Refund returns n tokens at now (cost revision discovered the work was
// cheaper than estimated).
func (b *Bucket) Refund(now sim.Time, n float64) {
	b.refill(now)
	//splitlint:ignore floatdet reviewed: single exactly-rounded addition; order fixed by deterministic event order
	b.tokens += n
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
}

// Positive reports whether the balance at now is non-negative.
func (b *Bucket) Positive(now sim.Time) bool {
	return b.Tokens(now) >= 0
}

// UntilPositive returns how long from now until the balance reaches zero
// (zero if already non-negative).
func (b *Bucket) UntilPositive(now sim.Time) time.Duration {
	b.refill(now)
	if b.tokens >= 0 {
		return 0
	}
	if b.rate <= 0 {
		return time.Hour // effectively forever; callers re-check
	}
	secs := -b.tokens / b.rate
	return time.Duration(secs * float64(time.Second))
}
