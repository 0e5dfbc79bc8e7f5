// Package monitor is the simulator's continuous observability plane: a
// virtual-time SLO engine over per-ioctx syscall latencies, a sampler that
// reads every gauge of the kernel's metrics registry (scheduler queues and
// gates, block dispatcher, FTL, cache; exported as Chrome counter tracks),
// and an always-on flight recorder that dumps a deterministic post-mortem
// bundle when an invariant trips.
//
// The monitor consumes the same trace stream the attribution engine does
// (it is a trace.Sink; the tracer keeps no events), and it runs entirely in virtual time: every tick, every breach
// timestamp, and every bundle byte is identical across hosts and across
// sweep parallelism.
package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"splitio/internal/attr"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// Config configures a Monitor.
type Config struct {
	// Window is the SLO evaluation (and gauge sampling) interval;
	// default 500ms of virtual time.
	Window time.Duration
	// Rules are the SLOs to evaluate each window.
	Rules []Rule
}

const (
	// eventRing bounds the flight recorder's recent-event ring.
	eventRing int = 512
	// sampleRing bounds retained gauge samples.
	sampleRing int = 16
)

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 500 * time.Millisecond
	}
	return c
}

// Reading is one gauge's value at a tick.
type Reading struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Sample is one tick's reading of every registry gauge, in registration
// order.
type Sample struct {
	At     sim.Time  `json:"at_ns"`
	Gauges []Reading `json:"gauges"`
}

// Monitor is the observability plane for one kernel. Create with New,
// attach to the kernel's tracer (trace.Attach), then Start the virtual-time
// ticker.
type Monitor struct {
	env *sim.Env
	reg *metrics.Registry
	cfg Config

	windows map[sloKey]*window
	breach  []Breach

	counters []trace.CounterSample
	samples  []Sample
	ticks    int

	attribution *attr.Attribution
	lastInv     int64

	rec recorder
}

// New builds a Monitor that samples reg's gauges on every tick. It does
// nothing until attached to a tracer and started.
func New(env *sim.Env, reg *metrics.Registry, cfg Config) *Monitor {
	m := &Monitor{
		env:     env,
		reg:     reg,
		cfg:     cfg.withDefaults(),
		windows: make(map[sloKey]*window),
	}
	m.rec.cap = eventRing
	return m
}

// WatchAttr registers the attribution engine: any new priority inversion
// (including gc-stall inversions) observed at a tick trips the flight
// recorder.
func (m *Monitor) WatchAttr(a *attr.Attribution) { m.attribution = a }

// Start arms the virtual-time ticker: a handler that closes a window every
// Window of virtual time and re-arms itself. A zero-delay start event arms
// the first window, so the first tick's seq is drawn after every event
// already due at the start instant. Like the metrics sampler, the ticker
// only reads simulation state, so a monitored run's results equal an
// unmonitored one's; kernels start a monitor only when observability is
// requested, for its cost.
func (m *Monitor) Start() {
	var tick func()
	tick = func() {
		m.tick(m.env.Now())
		m.env.Schedule(m.cfg.Window, tick)
	}
	m.env.Schedule(0, func() { m.env.Schedule(m.cfg.Window, tick) })
}

// Consume implements trace.Sink: syscall spans feed the SLO windows, and
// every event feeds the flight recorder's ring.
func (m *Monitor) Consume(ev trace.Event) {
	m.rec.push(ev)
	if ev.Layer != trace.LayerSyscall || ev.Instant() {
		return
	}
	k := sloKey{PID: int(ev.PID), Op: ev.Op}
	w := m.windows[k]
	if w == nil {
		w = &window{}
		m.windows[k] = w
	}
	w.h.Add(ev.Dur())
	w.bytes += ev.Bytes
	w.seen = true
}

// tick closes the current SLO window and reads every registry gauge.
func (m *Monitor) tick(now sim.Time) {
	m.ticks++

	// Gauges: one reading each, appended to the counter-sample log and the
	// bounded sample ring.
	s := Sample{At: now}
	m.reg.Visit(func(name string, v float64) {
		s.Gauges = append(s.Gauges, Reading{Name: name, Value: v})
		m.counters = append(m.counters, trace.CounterSample{Track: name, At: now, Value: v})
	})
	m.samples = append(m.samples, s)
	if len(m.samples) > sampleRing {
		m.samples = m.samples[len(m.samples)-sampleRing:]
	}

	// SLO evaluation over the closing window.
	breaches := m.evaluate(now)
	if len(breaches) > 0 {
		m.breach = append(m.breach, breaches...)
		b := breaches[0]
		m.TripNow("slo-breach", fmt.Sprintf("rule %q %s: %.6g over limit %.6g",
			b.Rule, b.Kind, b.Value, b.Limit))
	}

	// Invariant poll: new attribution inversions trip the recorder.
	if m.attribution != nil {
		if total := m.attribution.TotalInversions(); total > m.lastInv {
			var parts []string
			for _, k := range attr.Kinds() {
				if n := m.attribution.InversionCount(k); n > 0 {
					parts = append(parts, fmt.Sprintf("%s=%d", k, n))
				}
			}
			m.TripNow("inversion", fmt.Sprintf("%d new inversion(s): %s",
				total-m.lastInv, strings.Join(parts, " ")))
			m.lastInv = total
		}
	}
}

// Breaches returns every SLO breach so far, in detection order.
func (m *Monitor) Breaches() []Breach { return m.breach }

// Ticks returns how many windows have closed.
func (m *Monitor) Ticks() int { return m.ticks }

// Counters returns the full counter-sample log for Chrome export.
func (m *Monitor) Counters() []trace.CounterSample { return m.counters }

// Samples returns the retained gauge samples (oldest first).
func (m *Monitor) Samples() []Sample { return m.samples }

// Last returns the named gauge's value in the most recent sample.
func (m *Monitor) Last(name string) (float64, bool) {
	if len(m.samples) == 0 {
		return 0, false
	}
	for _, r := range m.samples[len(m.samples)-1].Gauges {
		if r.Name == name {
			return r.Value, true
		}
	}
	return 0, false
}

// RegisterMetrics publishes the monitor's own health as gauges.
func (m *Monitor) RegisterMetrics(r *metrics.Registry) {
	r.Gauge("monitor.ticks", func() float64 { return float64(m.ticks) })
	r.Gauge("monitor.breaches", func() float64 { return float64(len(m.breach)) })
	r.Gauge("monitor.trips", func() float64 { return float64(len(m.rec.dumps)) })
}

// sortedWindowKeys walks the streams in a deterministic order for rule
// evaluation, tests and the bundle.
func (m *Monitor) sortedWindowKeys() []sloKey {
	keys := make([]sloKey, 0, len(m.windows))
	for k := range m.windows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}
