package perf

import (
	"testing"

	"splitio/internal/sim"
)

func TestDisabledPathIsInert(t *testing.T) {
	ResetForTest()
	for i := 0; i < 10; i++ {
		Count(BucketVFS)
	}
	if s := TakeSnapshot(); s.Buckets != [NumBuckets]BucketStat{} {
		t.Fatalf("disabled Count moved counters: %+v", s.Buckets)
	}
}

// TestSamplingPeriod: SetSampleEvery is a no-op kept for its callers; a
// period that once thinned clock samples must not thin the exact counts.
func TestSamplingPeriod(t *testing.T) {
	ResetForTest()
	defer ResetForTest()
	Enable()
	SetSampleEvery(4)
	for i := 0; i < 100; i++ {
		Count(BucketCache)
	}
	if got := TakeSnapshot().Buckets[BucketCache].Calls; got != 100 {
		t.Errorf("calls = %d, want 100 (every call counted, whatever the period)", got)
	}
}

// TestEnabledButUnsampledNeverReadsClock: with the period the golden-
// determinism runs once used, enabled probes still count every call in
// its own bucket and no other, and counting stops after Disable.
func TestEnabledButUnsampledNeverReadsClock(t *testing.T) {
	ResetForTest()
	defer ResetForTest()
	Enable()
	SetSampleEvery(1 << 60)
	for i := 0; i < 1000; i++ {
		Count(BucketFS)
	}
	Count(BucketBlock)
	Disable()
	Count(BucketFS)
	s := TakeSnapshot()
	for _, b := range Buckets() {
		want := int64(0)
		switch b {
		case BucketFS:
			want = 1000
		case BucketBlock:
			want = 1
		}
		if got := s.Buckets[b].Calls; got != want {
			t.Errorf("%s calls = %d, want %d", b, got, want)
		}
	}
}

func TestObserveSimAggregates(t *testing.T) {
	ResetForTest()
	ObserveSim(sim.Stats{Events: 10, Switches: 4, HeapMax: 7})
	ObserveSim(sim.Stats{Events: 5, Switches: 1, HeapMax: 3})
	s := TakeSnapshot().Sim
	want := SimStat{Envs: 2, Events: 15, Switches: 5, HeapMax: 7}
	if s != want {
		t.Errorf("sim aggregate = %+v, want %+v", s, want)
	}
}

func TestDeltaSubtractsAndCarriesHeapMax(t *testing.T) {
	ResetForTest()
	before := TakeSnapshot()
	ObserveSim(sim.Stats{Events: 100, Switches: 20, HeapMax: 9})
	d := Delta(before, TakeSnapshot())
	if d.Sim.Envs != 1 || d.Sim.Events != 100 || d.Sim.Switches != 20 {
		t.Errorf("delta sim = %+v", d.Sim)
	}
	if d.Sim.HeapMax != 9 {
		t.Errorf("delta heap max = %d, want 9 (carried, not subtracted)", d.Sim.HeapMax)
	}
}

func TestNowNSMonotone(t *testing.T) {
	a := NowNS()
	b := NowNS()
	if b < a || a < 0 {
		t.Fatalf("NowNS went backwards: %d then %d", a, b)
	}
}
