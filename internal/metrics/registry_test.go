package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"splitio/internal/sim"
)

func TestRegistryGaugesAndSeries(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.Gauge("stack.depth", func() float64 { return v })
	c := r.Counter("stack.ops")

	r.Sample(0)
	v = 5
	c.Add(3)
	r.Sample(sim.Time(time.Second))

	s := r.Series("stack.depth")
	if len(s.Points) != 2 || s.Points[0].V != 1 || s.Points[1].V != 5 {
		t.Fatalf("depth series = %+v", s.Points)
	}
	if got := r.Series("stack.ops").Last(); got != 3 {
		t.Fatalf("counter series last = %v, want 3", got)
	}
	if names := r.Names(); len(names) != 2 || names[0] != "stack.depth" {
		t.Fatalf("Names = %v", names)
	}
	if r.Series("nope") != nil {
		t.Fatal("unregistered series should be nil")
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
	h := r.Histogram("lat.fsync")
	h.Add(5 * time.Millisecond)
	own := &Histogram{}
	own.Add(time.Millisecond)
	r.AddHistogram("lat.write", own)
	if got := r.HistogramNames(); len(got) != 2 || got[0] != "lat.fsync" || got[1] != "lat.write" {
		t.Fatalf("HistogramNames = %v, want registration order", got)
	}
	if r.Hist("lat.write") != own {
		t.Fatal("Hist returned a different histogram than registered")
	}
	if r.Hist("missing") != nil {
		t.Fatal("Hist on unregistered name should be nil")
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
	h := r.Histogram("lat.fsync")
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	buf.Reset()
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"histogram", "lat.fsync", "50ms", "95ms", "99ms", "100ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}
