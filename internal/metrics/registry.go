// Registry: named gauges and counters sampled on virtual-time ticks into
// time series, giving every experiment a uniform view of internal state
// (queue depths, dirty pages, transaction sizes, dispatch counts) without
// each experiment hand-rolling its own probes.

package metrics

import (
	"fmt"
	"io"
	"sort"
	"time"

	"splitio/internal/sim"
)

// Gauge reads an instantaneous value.
type Gauge func() float64

// RegCounter is a monotonically accumulating counter registered in a
// Registry (e.g. per-scheduler dispatch counts). Reading it as a gauge
// yields the running total.
type RegCounter struct {
	v float64
}

// Add accumulates n.
func (c *RegCounter) Add(n float64) { c.v += n }

// Inc accumulates 1.
func (c *RegCounter) Inc() { c.v++ }

// Value returns the running total.
func (c *RegCounter) Value() float64 { return c.v }

// Registry is a named set of gauges sampled into time series. It is not
// safe for concurrent use; the simulation is single-threaded.
type Registry struct {
	gauges    map[string]Gauge
	series    map[string]*Series
	names     []string // registration order
	hists     map[string]*Histogram
	histNames []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]Gauge),
		series: make(map[string]*Series),
		hists:  make(map[string]*Histogram),
	}
}

// Gauge registers fn under name. Registering a duplicate name panics: two
// subsystems publishing under one name would silently corrupt each other's
// series.
func (r *Registry) Gauge(name string, fn Gauge) {
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate gauge %q", name))
	}
	r.gauges[name] = fn
	r.series[name] = &Series{Name: name}
	r.names = append(r.names, name)
}

// Counter registers and returns a new counter gauge under name.
func (r *Registry) Counter(name string) *RegCounter {
	c := &RegCounter{}
	r.Gauge(name, c.Value)
	return c
}

// AddHistogram registers an existing histogram under name, so a subsystem
// that owns its histograms (latency attribution) can publish them without
// copying samples. Duplicate names panic, as with Gauge.
func (r *Registry) AddHistogram(name string, h *Histogram) {
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("metrics: duplicate histogram %q", name))
	}
	r.hists[name] = h
	r.histNames = append(r.histNames, name)
}

// Histogram registers and returns a new histogram under name.
func (r *Registry) Histogram(name string) *Histogram {
	h := &Histogram{}
	r.AddHistogram(name, h)
	return h
}

// Hist returns the registered histogram for name (nil if unregistered).
func (r *Registry) Hist(name string) *Histogram { return r.hists[name] }

// HistogramNames returns registered histogram names in registration order.
func (r *Registry) HistogramNames() []string {
	return append([]string(nil), r.histNames...)
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// Series returns the sampled series for name (nil if unregistered).
func (r *Registry) Series(name string) *Series { return r.series[name] }

// Sample reads every gauge at virtual time now and appends the values to
// their series.
func (r *Registry) Sample(now sim.Time) {
	for _, name := range r.names {
		r.series[name].Add(now, r.gauges[name]())
	}
}

// StartSampler schedules a handler that samples every gauge now and then
// re-arms itself every interval of virtual time. Gauges must only read
// state: the sampler's events take their own sequence numbers and leave the
// order of every other event unchanged, so a sampled run's results equal an
// unsampled one's. Kernels start a sampler only when observability is
// requested, for its cost.
func (r *Registry) StartSampler(env *sim.Env, every time.Duration) {
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	var sample func()
	sample = func() {
		r.Sample(env.Now())
		env.Schedule(every, sample)
	}
	env.Schedule(0, sample)
}

// WriteText writes a per-gauge summary (samples, min, mean, max, last) in
// registration order — the plain-text companion to the sampled series —
// followed by a percentile table for any registered histograms.
func (r *Registry) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-28s  %8s  %12s  %12s  %12s  %12s\n", "metric", "samples", "min", "mean", "max", "last")
	for _, name := range r.names {
		s := r.series[name]
		fmt.Fprintf(w, "%-28s  %8d  %12.1f  %12.1f  %12.1f  %12.1f\n",
			name, len(s.Points), s.Min(), s.Mean(), s.Max(), s.Last())
	}
	if len(r.histNames) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-28s  %8s  %12s  %12s  %12s  %12s\n", "histogram", "count", "p50", "p95", "p99", "max")
	for _, name := range r.histNames {
		h := r.hists[name]
		qs := h.Quantiles([]float64{50, 95, 99})
		fmt.Fprintf(w, "%-28s  %8d  %12v  %12v  %12v  %12v\n",
			name, h.Count(), qs[0], qs[1], qs[2], h.Max())
	}
}

// SortedNames returns the registered names sorted alphabetically (for
// deterministic map-style access in tests).
func (r *Registry) SortedNames() []string {
	names := r.Names()
	sort.Strings(names)
	return names
}
