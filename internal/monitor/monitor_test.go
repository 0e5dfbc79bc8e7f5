package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"testing"
	"time"

	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

func TestParseRule(t *testing.T) {
	r, err := ParseRule("pid=100 op=fsync p99<10ms")
	if err != nil {
		t.Fatal(err)
	}
	if r.PID != 100 || r.Op != "fsync" || r.Quantile != 0.99 || r.MaxLatency != 10*time.Millisecond {
		t.Errorf("parsed %+v", r)
	}
	if r.Name != "pid=100 op=fsync p99<10ms" {
		t.Errorf("name defaults to the spec, got %q", r.Name)
	}

	r, err = ParseRule("op=write bps>=1048576")
	if err != nil {
		t.Fatal(err)
	}
	if r.MinBps != 1048576 || r.Op != "write" {
		t.Errorf("parsed %+v", r)
	}

	r, err = ParseRule("op=fsync p95<5ms budget=0.01 burn=2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Budget != 0.01 || r.Burn != 2 || r.Quantile != 0.95 {
		t.Errorf("parsed %+v", r)
	}

	for _, bad := range []string{
		"",                    // no term at all
		"pid=100",             // no latency or throughput term
		"p99<10ms budget=x",   // bad budget
		"p42<10ms",            // unknown quantile
		"p99=10ms",            // missing <
		"p99<tenms",           // bad duration
		"op=fsync budget=0.1", // budget without latency bound
		"frobnicate",          // unknown token
		"bps>=10MB",           // unit suffix on a throughput floor
		"pid=12abc p99<10ms",  // trailing garbage after a pid
		"p99<10ms budget=0.01x",
		"p99<10ms budget=0.01 burn=2x",
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}

// binUpperOf returns the upper bound of v's histogram bin through the
// exported API: with a second sample at the largest duration, the median
// is v's bin upper bound and the clamp to Max never applies.
func binUpperOf(v time.Duration) time.Duration {
	var h metrics.Histogram
	h.Add(v)
	h.Add(math.MaxInt64)
	return h.Quantile(0.5)
}

func TestHistBins(t *testing.T) {
	// Walk every bin from 0 up: each bin's upper bound must map back to the
	// same bin and the next value must open a strictly higher one. Together
	// these make nearest-rank quantiles well defined.
	perOctave := map[int]int{}
	bins := 0
	for v := time.Duration(0); ; {
		up := binUpperOf(v)
		if up < v {
			t.Fatalf("binUpperOf(%d) = %d, below the value", v, up)
		}
		if got := binUpperOf(up); got != up {
			t.Fatalf("binUpperOf(binUpperOf(%d)=%d) = %d", v, up, got)
		}
		bins++
		perOctave[bits.Len64(uint64(up))]++
		if up == math.MaxInt64 {
			break
		}
		v = up + 1
	}
	// Values below 8 ns bin exactly; every octave above splits into 8
	// linear sub-bins, up to the 60 octaves from 2^3 to 2^63.
	for v := time.Duration(0); v < 8; v++ {
		if binUpperOf(v) != v {
			t.Errorf("small value %d not exact", v)
		}
	}
	for octave, n := range perOctave {
		if octave > 3 && n != 8 {
			t.Errorf("octave %d has %d bins, want 8", octave, n)
		}
	}
	if want := 8 + 60*8; bins != want {
		t.Errorf("%d bins, want %d", bins, want)
	}
}

func TestHistQuantile(t *testing.T) {
	var h metrics.Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	// Log-histogram quantiles overestimate by at most one sub-bin (~12.5%).
	for _, tc := range []struct{ q, val float64 }{
		{0.50, 50e6}, {0.95, 95e6}, {0.99, 99e6},
	} {
		got := float64(h.Quantile(tc.q))
		if got < tc.val || got > tc.val*1.15 {
			t.Errorf("q%g = %g, want within [%g, %g]", tc.q, got, tc.val, tc.val*1.15)
		}
	}
	if h.CountAbove(200*time.Millisecond) != 0 {
		t.Errorf("CountAbove(200ms) nonzero")
	}
	if bad := h.CountAbove(1 * time.Millisecond); bad < 99 {
		t.Errorf("CountAbove(1ms) = %d, want >= 99", bad)
	}

	var merged metrics.Histogram
	merged.Merge(&h)
	merged.Merge(&h)
	if merged.Count() != 200 {
		t.Errorf("merged count %d", merged.Count())
	}
	if merged.Quantile(0.5) != h.Quantile(0.5) {
		t.Errorf("merge shifted the median")
	}
}

func TestRecorderRing(t *testing.T) {
	r := recorder{cap: 4}
	for i := 0; i < 10; i++ {
		r.push(trace.Event{Op: fmt.Sprintf("op%d", i), Start: sim.Time(i)})
	}
	got := r.recent()
	if len(got) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(got))
	}
	for i, re := range got {
		if want := fmt.Sprintf("op%d", 6+i); re.Op != want {
			t.Errorf("recent[%d] = %s, want %s (oldest-first)", i, re.Op, want)
		}
	}
	if r.total != 10 {
		t.Errorf("total %d, want 10", r.total)
	}
}

func TestTripFirstPerKind(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	m := New(env, metrics.NewRegistry(), Config{})
	m.TripNow("slo-breach", "first")
	m.TripNow("slo-breach", "second") // no-op: kind already dumped
	m.TripNow("inversion", "other kind")
	dumps := m.Dumps()
	if len(dumps) != 2 {
		t.Fatalf("got %d dumps, want 2", len(dumps))
	}
	if dumps[0].Detail != "first" || dumps[1].Kind != "inversion" {
		t.Errorf("dumps = %+v", dumps)
	}

	var buf bytes.Buffer
	if err := m.WriteBundles(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Bundle
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bundle stream is not valid JSON: %v", err)
	}
	if len(back) != 2 || back[0].Kind != "slo-breach" {
		t.Errorf("round-tripped %+v", back)
	}
}

// TestMonitorEndToEnd drives a Monitor purely with synthetic trace events
// and a virtual-time env: a latency rule breaches on the slow stream and
// trips exactly one slo-breach bundle whose window stats match, and every
// tick reads the registry's gauges into the counter log and the bundle.
func TestMonitorEndToEnd(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	rule, err := ParseRule("pid=7 op=fsync p99<10ms")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	issued := 0
	reg.Gauge("load.issued", func() float64 { return float64(issued) })
	m := New(env, reg, Config{Window: 100 * time.Millisecond, Rules: []Rule{rule}})
	m.Start()

	// A process that issues one slow "fsync" span per 25ms of virtual time.
	env.Go("load", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			p.Sleep(25 * time.Millisecond)
			issued++
			m.Consume(trace.Event{
				Layer: trace.LayerSyscall, Op: "fsync", PID: 7,
				Start: p.Now() - sim.Time(20*time.Millisecond), End: p.Now(),
				Bytes: 4096,
			})
		}
	})
	env.Run(sim.Time(450 * time.Millisecond))

	if m.Ticks() != 4 {
		t.Errorf("ticks = %d, want 4", m.Ticks())
	}
	bs := m.Breaches()
	if len(bs) == 0 {
		t.Fatal("no breaches detected")
	}
	b := bs[0]
	if b.At != sim.Time(100*time.Millisecond) {
		t.Errorf("first breach at %v, want the first window close (100ms)", time.Duration(b.At))
	}
	if b.Kind != "latency" || time.Duration(b.Value) < 20*time.Millisecond {
		t.Errorf("breach = %+v", b)
	}
	if b.Window.Count == 0 || b.Window.Bytes == 0 {
		t.Errorf("breach window stats empty: %+v", b.Window)
	}
	dumps := m.Dumps()
	if len(dumps) != 1 || dumps[0].Kind != "slo-breach" {
		t.Fatalf("dumps = %+v, want exactly one slo-breach", dumps)
	}
	if len(dumps[0].Events) == 0 {
		t.Error("bundle has no flight-recorder events")
	}
	if !strings.Contains(dumps[0].Detail, rule.Name) {
		t.Errorf("bundle detail %q does not name the rule", dumps[0].Detail)
	}
	if s := dumps[0].Samples; len(s) != 1 || s[0].Gauges[0] != (Reading{"load.issued", 3}) {
		t.Errorf("bundle samples = %+v, want load.issued=3 at the first tick", s)
	}
	if v, ok := m.Last("load.issued"); !ok || v != 12 {
		t.Errorf("last load.issued = %v (sampled %v), want 12", v, ok)
	}
	if _, ok := m.Last("absent"); ok {
		t.Error("Last found a gauge that was never registered")
	}
	if c := m.Counters(); len(c) != 4 || c[3].Track != "load.issued" || c[3].At != sim.Time(400*time.Millisecond) {
		t.Errorf("counter log = %+v, want one load.issued point per tick", c)
	}
}

// TestThroughputRule checks the floor only arms once the stream has been
// seen, and breaches when the stream stalls afterward.
func TestThroughputRule(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	rule, err := ParseRule("pid=7 op=write bps>=1000000")
	if err != nil {
		t.Fatal(err)
	}
	m := New(env, metrics.NewRegistry(), Config{Window: 100 * time.Millisecond, Rules: []Rule{rule}})
	m.Start()
	env.Go("load", func(p *sim.Proc) {
		// Window 1: plenty of bytes. Windows 2+: silence (a stall).
		for i := 0; i < 4; i++ {
			p.Sleep(20 * time.Millisecond)
			m.Consume(trace.Event{
				Layer: trace.LayerSyscall, Op: "write", PID: 7,
				Start: p.Now() - sim.Time(time.Millisecond), End: p.Now(),
				Bytes: 64 << 10,
			})
		}
	})
	env.Run(sim.Time(350 * time.Millisecond))

	bs := m.Breaches()
	if len(bs) == 0 {
		t.Fatal("stalled stream never breached its throughput floor")
	}
	if bs[0].Kind != "throughput" {
		t.Errorf("first breach kind %q", bs[0].Kind)
	}
	if bs[0].At <= sim.Time(100*time.Millisecond) {
		t.Errorf("floor breached in the first (healthy) window at %v", time.Duration(bs[0].At))
	}
}
