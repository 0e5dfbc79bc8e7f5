// Package metrics provides the measurement primitives used to regenerate the
// paper's tables and figures: latency histograms with tail percentiles,
// throughput counters, time series, and deviation-from-ideal scoring.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"splitio/internal/sim"
)

// Histogram collects latency samples and reports percentiles. It stores
// raw samples; the experiments here collect at most a few hundred thousand.
type Histogram struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// ensureSorted sorts the samples once; Add clears the flag.
func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank. It returns 0 when the histogram is empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Quantiles returns the nearest-rank percentile for each p in ps with a
// single sort, where a Percentile loop would re-check (and on a histogram
// interleaved with Add, re-sort) per call. The result is index-aligned
// with ps; an empty histogram yields all zeros.
func (h *Histogram) Quantiles(ps []float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(h.samples) == 0 {
		return out
	}
	h.ensureSorted()
	for i, p := range ps {
		rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(h.samples) {
			rank = len(h.samples)
		}
		out[i] = h.samples[rank-1]
	}
	return out
}

// Mean returns the arithmetic mean of the samples.
func (h *Histogram) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	var m time.Duration
	for _, s := range h.samples {
		if s > m {
			m = s
		}
	}
	return m
}

// FractionAbove returns the fraction of samples strictly greater than d.
func (h *Histogram) FractionAbove(d time.Duration) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range h.samples {
		if s > d {
			n++
		}
	}
	return float64(n) / float64(len(h.samples))
}

// Samples returns a copy of the raw samples.
func (h *Histogram) Samples() []time.Duration {
	return append([]time.Duration(nil), h.samples...)
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

// Series is an append-only time series, used for the timeline figures
// (Fig 1, Fig 12).
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

// FormatMBps renders a throughput for table output.
func FormatMBps(v float64) string { return fmt.Sprintf("%7.1f MB/s", v) }
