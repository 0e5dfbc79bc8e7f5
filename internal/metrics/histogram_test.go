package metrics

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBinGeometry(t *testing.T) {
	// Upper bounds strictly increase and map back to their own bin, so
	// nearest-rank quantiles are well defined; each bin is at most an
	// eighth of its lower bound wide, the 12.5% error bound.
	prev := int64(-1)
	for b := 0; b < numBins; b++ {
		up := binUpper(b)
		if up <= prev {
			t.Fatalf("binUpper(%d)=%d not increasing (prev %d)", b, up, prev)
		}
		if got := binOf(up); got != b {
			t.Fatalf("binOf(binUpper(%d)=%d) = %d", b, up, got)
		}
		if lo := prev + 1; up-lo > lo/8 {
			t.Fatalf("bin %d = [%d, %d] wider than an eighth of its lower bound", b, lo, up)
		}
		prev = up
	}
	if prev != math.MaxInt64 {
		t.Fatalf("last bin ends at %d, want MaxInt64", prev)
	}
	for v := int64(0); v < subBins; v++ {
		if binUpper(binOf(v)) != v {
			t.Errorf("small value %d not exact", v)
		}
	}
	if binOf(-5) != 0 {
		t.Errorf("negative value binned at %d, want 0", binOf(-5))
	}
}

// oracle is the exact nearest-rank percentile over a sorted copy of the
// samples: the raw-sample sort path the histogram replaced.
func oracle(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

func TestHistogramMatchesSortedOracle(t *testing.T) {
	ps := []float64{1, 10, 25, 50, 90, 95, 99, 99.9, 100}
	f := func(xs, ys []uint32, shift uint8) bool {
		// Shifting spreads the samples over 1 ns to about 50 days.
		var all []time.Duration
		var hx, hy, hall Histogram
		for i, raw := range [][]uint32{xs, ys} {
			for _, v := range raw {
				d := time.Duration(v) << (shift % 20)
				all = append(all, d)
				hall.Add(d)
				if i == 0 {
					hx.Add(d)
				} else {
					hy.Add(d)
				}
			}
		}
		if len(all) == 0 {
			return hall.Count() == 0 && hall.Percentile(50) == 0
		}
		sorted := append([]time.Duration(nil), all...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		exactMax := sorted[len(sorted)-1]
		if hall.Count() != len(all) || hall.Mean() != sum/time.Duration(len(all)) || hall.Max() != exactMax {
			t.Logf("count/mean/max = %d/%v/%v, want %d/%v/%v",
				hall.Count(), hall.Mean(), hall.Max(), len(all), sum/time.Duration(len(all)), exactMax)
			return false
		}
		for _, p := range ps {
			exact, got := oracle(sorted, p), hall.Percentile(p)
			if got < exact || got > min(exactMax, exact+exact/8) {
				t.Logf("p%g = %v, exact %v, max %v", p, got, exact, exactMax)
				return false
			}
		}
		for _, d := range sorted {
			for _, thr := range []time.Duration{d - 1, d, d + d/16} {
				n := len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > thr })
				if got := hall.FractionAbove(thr); got < float64(n)/float64(len(sorted)) {
					t.Logf("FractionAbove(%v) = %v, exact %d/%d", thr, got, n, len(sorted))
					return false
				}
			}
		}
		var merged Histogram
		merged.Merge(&hx)
		merged.Merge(&hy)
		if !reflect.DeepEqual(merged, hall) {
			t.Logf("Merge(x, y) = %+v, one stream = %+v", merged, hall)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBounded(t *testing.T) {
	var h Histogram
	if h.bins != nil {
		t.Fatalf("zero value holds %d bins, want none", cap(h.bins))
	}
	// One million samples spread log-uniformly from 1 ns to 1 h.
	const n = 1_000_000
	span := math.Log(float64(time.Hour))
	for i := 0; i < n; i++ {
		h.Add(time.Duration(math.Exp(span * float64(i) / (n - 1))))
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if len(h.bins) > numBins || cap(h.bins) > numBins {
		t.Fatalf("holds %d bin counters (cap %d), want at most %d", len(h.bins), cap(h.bins), numBins)
	}
	if got := h.Percentile(100); got != h.Max() || got < time.Hour-time.Microsecond {
		t.Fatalf("p100 = %v, max %v", got, h.Max())
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Add(37 * time.Millisecond) }); allocs != 0 {
		t.Fatalf("steady-state Add allocates %v times per call", allocs)
	}
}
