// Package metrics provides the measurement primitives used to regenerate the
// paper's tables and figures: latency histograms with tail percentiles,
// throughput counters, time series, and deviation-from-ideal scoring.
package metrics

import (
	"math"
	"math/bits"
	"time"

	"splitio/internal/sim"
)

// Histogram collects latency samples into a fixed-bin log histogram: 8
// linear sub-bins per power-of-two octave, so storage is bounded by a
// fixed bin count however long the run. Bins are integer counters, so
// merging is exact and the same samples always give the same quantiles.
//
// Count, Mean and Max are exact. A quantile is the upper bound of the bin
// holding its nearest-rank sample, clamped to Max: never below the exact
// nearest-rank value, never above Max, and at most 12.5% above the exact
// value (values below 8 ns are binned exactly). The zero value is an empty
// histogram that holds no bins until its first Add.
type Histogram struct {
	bins  []int64 // grown on demand, never past numBins
	count int64
	sum   time.Duration
	max   time.Duration
}

const (
	subBits = 3
	subBins = 1 << subBits                   // linear sub-bins per octave
	numBins = (63-subBits)*subBins + subBins // covers every non-negative int64
)

// binOf returns the bin holding ns; negative values fall in bin 0.
func binOf(ns int64) int {
	if ns < subBins {
		return int(max(ns, 0))
	}
	top := bits.Len64(uint64(ns)) - 1 // position of the leading bit, >= subBits
	sub := int(ns>>(top-subBits)) & (subBins - 1)
	return (top-subBits)*subBins + sub + subBins
}

// binUpper returns the largest value that falls in bin b.
func binUpper(b int) int64 {
	if b < subBins {
		return int64(b)
	}
	idx := b - subBins
	top := idx/subBins + subBits
	sub := int64(idx % subBins)
	return (subBins+sub+1)<<(top-subBits) - 1
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	b := binOf(int64(d))
	h.grow(b + 1)
	h.bins[b]++
	h.count++
	h.sum += d
	h.max = max(h.max, d)
}

// grow extends the bins to n counters, allocating exactly n.
func (h *Histogram) grow(n int) {
	if n > len(h.bins) {
		bins := make([]int64, n)
		copy(bins, h.bins)
		h.bins = bins
	}
}

// Merge adds every sample of o into h.
func (h *Histogram) Merge(o *Histogram) {
	h.grow(len(o.bins))
	for b, c := range o.bins {
		h.bins[b] += c
	}
	h.count += o.count
	h.sum += o.sum
	h.max = max(h.max, o.max)
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) under the bin
// contract above. It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(h.count))), 1)
	var cum int64
	for b, c := range h.bins {
		cum += c
		if cum >= rank {
			return min(time.Duration(binUpper(b)), h.max)
		}
	}
	return h.max
}

// Percentile returns the p-th percentile (0 < p <= 100), that is
// Quantile(p/100).
func (h *Histogram) Percentile(p float64) time.Duration { return h.Quantile(p / 100) }

// Quantiles returns Percentile(p) for each p in ps, index-aligned with ps;
// an empty histogram yields all zeros.
func (h *Histogram) Quantiles(ps []float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest sample, or 0 if none is positive.
func (h *Histogram) Max() time.Duration { return h.max }

// CountAbove returns how many samples fell in bins whose upper bound
// exceeds d: never fewer than the samples strictly greater than d, and
// over-counting only within d's own bin. It is 0 when d >= Max.
func (h *Histogram) CountAbove(d time.Duration) int64 {
	if d >= h.max {
		return 0
	}
	var n int64
	for b := len(h.bins) - 1; b >= 0 && binUpper(b) > int64(d); b-- {
		n += h.bins[b]
	}
	return n
}

// FractionAbove returns CountAbove(d) as a fraction of Count.
func (h *Histogram) FractionAbove(d time.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.CountAbove(d)) / float64(h.count)
}

// Counter accumulates a byte (or operation) count over virtual time and
// reports throughput.
type Counter struct {
	total int64
	start sim.Time
	set   bool
}

// Start marks the beginning of the measurement window.
func (c *Counter) Start(t sim.Time) { c.start, c.set = t, true }

// Add accumulates n units.
func (c *Counter) Add(n int64) { c.total += n }

// Total returns the accumulated count.
func (c *Counter) Total() int64 { return c.total }

// Reset zeroes the counter and restarts the window at t.
func (c *Counter) Reset(t sim.Time) { c.total = 0; c.start, c.set = t, true }

// PerSecond returns the rate over [start, now].
func (c *Counter) PerSecond(now sim.Time) float64 {
	if !c.set || now <= c.start {
		return 0
	}
	return float64(c.total) / now.Sub(c.start).Seconds()
}

// MBps returns the rate in binary megabytes per second.
func (c *Counter) MBps(now sim.Time) float64 {
	return c.PerSecond(now) / (1 << 20)
}

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series: the registry's per-gauge sample
// log, which -stats prints and the schedule goldens' metrics= digest hashes.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(t sim.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Last returns the final value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// Mean returns the average of the sampled values.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Min returns the smallest sampled value, or 0 if empty.
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points[1:] {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Max returns the largest sampled value, or 0 if empty.
func (s *Series) Max() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].V
	for _, p := range s.Points[1:] {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// StdDev returns the population standard deviation of vs.
func StdDev(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vs)))
}

// Mean returns the arithmetic mean of vs, or 0 when empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// DeviationFromIdeal computes the paper's priority-fairness score: the mean
// relative deviation of each share from its ideal share. got and ideal must
// be the same length and ideal entries must be positive.
func DeviationFromIdeal(got, ideal []float64) float64 {
	if len(got) != len(ideal) || len(got) == 0 {
		return math.NaN()
	}
	var gsum, isum float64
	for i := range got {
		gsum += got[i]
		isum += ideal[i]
	}
	if gsum == 0 || isum == 0 {
		return math.NaN()
	}
	var dev float64
	for i := range got {
		gshare := got[i] / gsum
		ishare := ideal[i] / isum
		dev += math.Abs(gshare-ishare) / ishare
	}
	return dev / float64(len(got))
}
