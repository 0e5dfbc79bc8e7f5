package metrics

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"splitio/internal/sim"
)

func TestRegistryGaugesAndSeries(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	ops := 0.0
	r.Gauge("stack.depth", func() float64 { return v })
	r.Gauge("stack.ops", func() float64 { return ops })

	r.Sample(0)
	v = 5
	ops += 3
	r.Sample(sim.Time(time.Second))

	s := r.Series("stack.depth")
	if len(s.Points) != 2 || s.Points[0].V != 1 || s.Points[1].V != 5 {
		t.Fatalf("depth series = %+v", s.Points)
	}
	if got := r.Series("stack.ops").Last(); got != 3 {
		t.Fatalf("ops series last = %v, want 3", got)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "stack.depth" {
		t.Fatalf("Names = %v", names)
	}
	if r.Series("nope") != nil {
		t.Fatal("unregistered series should be nil")
	}

	// Visit reads every gauge in registration order and leaves the series
	// to Sample alone.
	var visited []string
	r.Visit(func(name string, v float64) { visited = append(visited, fmt.Sprintf("%s=%g", name, v)) })
	if got := strings.Join(visited, " "); got != "stack.depth=5 stack.ops=3" {
		t.Fatalf("Visit read %q", got)
	}
	if n := len(r.Series("stack.depth").Points); n != 2 {
		t.Fatalf("Visit appended to the series: %d points, want 2", n)
	}

	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "stack.depth") || !strings.Contains(buf.String(), "stack.ops") {
		t.Fatalf("WriteText missing gauges:\n%s", buf.String())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Gauge("x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate gauge registration did not panic")
		}
	}()
	r.Gauge("x", func() float64 { return 1 })
}

func TestRegistrySampler(t *testing.T) {
	env := sim.NewEnv(1)
	defer env.Close()
	r := NewRegistry()
	ticks := 0.0
	r.Gauge("ticks", func() float64 { ticks++; return ticks })
	r.StartSampler(env, 10*time.Millisecond)
	env.Run(sim.Time(95 * time.Millisecond))
	s := r.Series("ticks")
	if len(s.Points) != 10 { // t=0,10,...,90
		t.Fatalf("sampler took %d samples over 95ms at 10ms, want 10", len(s.Points))
	}
}

func TestRegistryHistograms(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"lat.write", "lat.fsync"} {
		h := &Histogram{}
		r.AddHistogram(name, h)
		h.Add(time.Millisecond)
	}
	// The registry publishes the histograms it was handed, not copies, in
	// registration order.
	var rows []string
	var buf bytes.Buffer
	r.WriteText(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 && strings.HasPrefix(f[0], "lat.") {
			rows = append(rows, f[0]+"="+f[1])
		}
	}
	if got, want := strings.Join(rows, " "), "lat.write=1 lat.fsync=1"; got != want {
		t.Fatalf("histogram rows = %q, want %q:\n%s", got, want, buf.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddHistogram did not panic")
		}
	}()
	r.AddHistogram("lat.fsync", &Histogram{})
}

func TestWriteTextIncludesHistogramTable(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	r.WriteText(&buf)
	if strings.Contains(buf.String(), "histogram") {
		t.Fatalf("histogram table printed with no histograms:\n%s", buf.String())
	}
	h := &Histogram{}
	r.AddHistogram("lat.fsync", h)
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	buf.Reset()
	r.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "histogram") {
		t.Errorf("WriteText missing the histogram header:\n%s", out)
	}
	// count, p50, p95, p99, max: p50 is the upper bound of 50ms's bin; 95ms
	// and 99ms share a bin whose upper bound clamps to the 100ms max.
	want := []string{"lat.fsync", "100", "50.331647ms", "100ms", "100ms", "100ms"}
	var row []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "lat.fsync" {
			row = f
		}
	}
	if strings.Join(row, " ") != strings.Join(want, " ") {
		t.Errorf("WriteText row = %q, want %q:\n%s", row, want, out)
	}
}
