// Package cpusim models CPU contention with a proportional-share multi-core
// processor. Simulated work (syscall paths, memory copies, spin loops)
// consumes CPU via Use; when more bursts are active than there are cores,
// every burst stretches by the oversubscription factor. This reproduces the
// paper's Fig 15 observation that CPU-bound antagonists slow an I/O-bound
// process even when the I/O scheduler is perfect.
package cpusim

import (
	"time"

	"splitio/internal/sim"
)

// CPU is a proportional-share multi-core processor model.
type CPU struct {
	cores  int
	active int
	// busy accumulates core-time consumed, for utilization reporting.
	busy time.Duration
}

// New returns a CPU with the given core count (minimum 1).
func New(cores int) *CPU {
	if cores < 1 {
		cores = 1
	}
	return &CPU{cores: cores}
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// BusyTime returns total core-time consumed so far.
func (c *CPU) BusyTime() time.Duration { return c.busy }

// Use consumes d of CPU time on behalf of p, sleeping for d stretched by the
// oversubscription factor sampled at burst start. Zero or negative d is a
// no-op.
func (c *CPU) Use(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	c.active++
	stretch := 1.0
	if c.active > c.cores {
		stretch = float64(c.active) / float64(c.cores)
	}
	c.busy += d
	p.Sleep(time.Duration(float64(d) * stretch))
	c.active--
}

// Stretch returns the current oversubscription factor (>= 1).
func (c *CPU) Stretch() float64 {
	if c.active <= c.cores {
		return 1
	}
	return float64(c.active) / float64(c.cores)
}
