package metrics

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
)

// buildRegistry registers the same gauges in the same (deliberately
// non-alphabetical) order; two builds must render byte-identically.
func buildRegistry() *Registry {
	r := NewRegistry()
	for i, n := range []string{"zeta.depth", "alpha.dirty", "mid.tokens", "beta.queue"} {
		v := float64(i + 1)
		r.Gauge(n, func() float64 { return v })
	}
	h := &Histogram{}
	h.Add(1000)
	r.AddHistogram("lat.fsync", h)
	return r
}

// TestRegistryOrderingDeterminism pins the gauge-ordering contract the
// monitor and -stats depend on: registration order is preserved by Names,
// Sample, and WriteText (never map order), Names returns a copy, and two
// identical registries render byte-identical text.
func TestRegistryOrderingDeterminism(t *testing.T) {
	want := []string{"zeta.depth", "alpha.dirty", "mid.tokens", "beta.queue"}
	r := buildRegistry()
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want registration order %v", got, want)
	}

	// Names hands out a copy: sorting it leaves registration order intact.
	sort.Strings(r.Names())
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("sorting Names() mutated registration order: %v", got)
	}

	// Two identical registries sampled identically render byte-identical
	// summaries, gauges and histograms included.
	r2 := buildRegistry()
	var a, b bytes.Buffer
	for _, reg := range []*Registry{r, r2} {
		reg.Sample(0)
		reg.Sample(100)
	}
	r.WriteText(&a)
	r2.WriteText(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical registries render differently:\n%s\nvs\n%s", a.String(), b.String())
	}

	// Sampled series follow the gauges, in order.
	for i, n := range want {
		s := r.Series(n)
		if s == nil || len(s.Points) != 2 {
			t.Fatalf("series %q missing or unsampled", n)
		}
		if s.Points[0].V != float64(i+1) {
			t.Errorf("series %q sampled %g, want %d", n, s.Points[0].V, i+1)
		}
	}
}
