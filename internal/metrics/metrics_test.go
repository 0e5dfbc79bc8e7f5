package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"splitio/internal/sim"
)

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	// 50 ms falls in the bin [46137344, 50331647] ns (octave 2^25, sub-bin
	// width 2^22), so p50 is that bin's upper bound.
	if got := h.Percentile(50); got != 50331647 {
		t.Fatalf("p50 = %v, want 50.331647ms (upper bound of 50ms's bin)", got)
	}
	// 99 ms's bin tops out at 100663295 ns, above every sample: the
	// quantile clamps to the exact max.
	if got := h.Percentile(99); got != 100*time.Millisecond {
		t.Fatalf("p99 = %v, want 100ms (bin upper bound clamped to Max)", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.FractionAbove(time.Second) != 0 {
		t.Fatal("empty FractionAbove != 0")
	}
}

func TestHistogramAddAfterPercentile(t *testing.T) {
	var h Histogram
	h.Add(10 * time.Millisecond)
	_ = h.Percentile(50)
	h.Add(time.Millisecond)
	// 1 ms falls in the bin [983040, 1048575] ns (octave 2^19, sub-bin
	// width 2^16).
	if got := h.Percentile(1); got != 1048575 {
		t.Fatalf("p1 after re-add = %v, want 1.048575ms (upper bound of 1ms's bin)", got)
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	var h Histogram
	for i := 1; i <= 10; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		d    time.Duration
		want float64
	}{
		// The 8 ms sample shares its bin [7864320, 8388607] ns with the
		// threshold, so it counts: the fraction errs high, never low.
		{8 * time.Millisecond, 0.3},
		// Above that bin's upper bound only the 9 and 10 ms bins count.
		{8388607, 0.2},
		{0, 1},
		// Nothing exceeds Max.
		{10 * time.Millisecond, 0},
	} {
		if got := h.FractionAbove(tc.d); got != tc.want {
			t.Errorf("FractionAbove(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		var h Histogram
		for _, v := range raw {
			h.Add(time.Duration(v) * time.Microsecond)
		}
		return h.Percentile(50) <= h.Percentile(90) &&
			h.Percentile(90) <= h.Percentile(99) &&
			h.Percentile(99) <= h.Percentile(100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Start(0)
	c.Add(1 << 20)
	now := sim.Time(time.Second)
	if got := c.MBps(now); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("MBps = %v, want 1", got)
	}
	if c.Total() != 1<<20 {
		t.Fatalf("Total = %d", c.Total())
	}
	c.Reset(now)
	if c.Total() != 0 {
		t.Fatal("Reset did not zero")
	}
	if c.MBps(now) != 0 {
		t.Fatal("rate over empty window should be 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Last() != 0 || s.Mean() != 0 || s.Min() != 0 {
		t.Fatal("empty series should report zeros")
	}
	s.Add(0, 2)
	s.Add(sim.Time(time.Second), 4)
	s.Add(sim.Time(2*time.Second), 6)
	if s.Last() != 6 {
		t.Fatalf("Last = %v", s.Last())
	}
	if s.Mean() != 4 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 {
		t.Fatalf("Min = %v", s.Min())
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("StdDev of constants = %v", got)
	}
	got := StdDev([]float64{1, 3})
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("StdDev = %v, want 1", got)
	}
	if StdDev(nil) != 0 {
		t.Fatal("StdDev(nil) != 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestDeviationFromIdeal(t *testing.T) {
	// Perfect allocation has zero deviation.
	ideal := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	if got := DeviationFromIdeal(ideal, ideal); got > 1e-12 {
		t.Fatalf("self deviation = %v", got)
	}
	// Uniform allocation against a priority ideal is badly off.
	uniform := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	d := DeviationFromIdeal(uniform, ideal)
	if d < 0.4 {
		t.Fatalf("uniform deviation = %v, want substantial", d)
	}
	if !math.IsNaN(DeviationFromIdeal([]float64{1}, []float64{1, 2})) {
		t.Fatal("mismatched lengths should be NaN")
	}
	if !math.IsNaN(DeviationFromIdeal(nil, nil)) {
		t.Fatal("empty should be NaN")
	}
}

func TestDeviationScaleInvariant(t *testing.T) {
	got := []float64{10, 20, 30}
	ideal := []float64{1, 2, 3}
	if d := DeviationFromIdeal(got, ideal); d > 1e-12 {
		t.Fatalf("proportional allocation deviation = %v, want 0", d)
	}
}

func TestQuantilesMatchPercentile(t *testing.T) {
	h := &Histogram{}
	for i := 100; i >= 1; i-- {
		h.Add(time.Duration(i))
	}
	ps := []float64{1, 25, 50, 95, 99, 100}
	got := h.Quantiles(ps)
	if len(got) != len(ps) {
		t.Fatalf("Quantiles returned %d values for %d percentiles", len(got), len(ps))
	}
	for i, p := range ps {
		if want := h.Percentile(p); got[i] != want {
			t.Errorf("Quantiles[%d] (p%g) = %v, Percentile = %v", i, p, got[i], want)
		}
	}
	if empty := (&Histogram{}).Quantiles(ps); len(empty) != len(ps) {
		t.Fatalf("empty Quantiles length %d, want %d", len(empty), len(ps))
	} else {
		for i, v := range empty {
			if v != 0 {
				t.Errorf("empty Quantiles[%d] = %v, want 0", i, v)
			}
		}
	}
	// An interleaved Add shows up in the next Quantiles, like Percentile.
	h.Add(1000)
	if q := h.Quantiles([]float64{100}); q[0] != 1000 {
		t.Errorf("post-Add p100 = %v, want 1000", q[0])
	}
}

func TestSeriesMax(t *testing.T) {
	var s Series
	if s.Max() != 0 {
		t.Fatalf("empty Max = %v, want 0", s.Max())
	}
	s.Add(1, -5)
	s.Add(2, -1)
	s.Add(3, -3)
	if s.Max() != -1 {
		t.Fatalf("Max = %v, want -1 (must not default to 0 on negatives)", s.Max())
	}
}
