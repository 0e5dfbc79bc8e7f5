package perf

import (
	"sync"
	"testing"

	"splitio/internal/sim"
)

// TestSnapshotDeltaConcurrent pins the snapshot/delta contract under
// concurrent observers: with writer goroutines hammering the hot-path
// counters while observer goroutines take snapshots, every snapshot is
// internally consistent (atomics, no torn reads under -race) and the final
// delta accounts for exactly the work performed.
func TestSnapshotDeltaConcurrent(t *testing.T) {
	ResetForTest()
	defer ResetForTest()
	Enable()

	const writers, iters = 8, 2000
	b := Buckets()[0]
	before := TakeSnapshot()

	stop := make(chan struct{})
	var observers sync.WaitGroup
	for o := 0; o < 3; o++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					snap := TakeSnapshot()
					if c := snap.Buckets[b].Calls; c < 0 || c > writers*iters {
						t.Errorf("torn snapshot: %d calls, want within [0, %d]", c, writers*iters)
						return
					}
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				Count(b)
			}
		}()
	}
	wg.Wait()
	close(stop)
	observers.Wait()

	after := TakeSnapshot()
	d := Delta(before, after)
	if got := d.Buckets[b].Calls; got != writers*iters {
		t.Errorf("delta calls = %d, want %d", got, writers*iters)
	}

	// Round-trip identities: a self-delta moves nothing, and two half
	// deltas sum to the whole.
	if z := Delta(after, after); z.Buckets[b].Calls != 0 || z.Sim.Events != 0 {
		t.Errorf("self-delta nonzero: %+v", z)
	}
	mid := TakeSnapshot()
	left, right := Delta(before, mid), Delta(mid, after)
	if left.Buckets[b].Calls+right.Buckets[b].Calls != d.Buckets[b].Calls {
		t.Errorf("split deltas do not sum: %d + %d != %d",
			left.Buckets[b].Calls, right.Buckets[b].Calls, d.Buckets[b].Calls)
	}
}

// TestObserveSimConcurrent: environment close-outs folding into the global
// aggregate from many goroutines lose nothing, and the heap high-water
// mark folds as a max, not a sum.
func TestObserveSimConcurrent(t *testing.T) {
	ResetForTest()
	defer ResetForTest()
	before := TakeSnapshot()

	const envs = 16
	var wg sync.WaitGroup
	for i := 0; i < envs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ObserveSim(sim.Stats{Events: 100, Switches: 10, HeapMax: 1000 + i})
		}()
	}
	wg.Wait()

	d := Delta(before, TakeSnapshot())
	if d.Sim.Envs != envs || d.Sim.Events != envs*100 || d.Sim.Switches != envs*10 {
		t.Errorf("aggregate lost updates: %+v", d.Sim)
	}
	if d.Sim.HeapMax != 1000+envs-1 {
		t.Errorf("heap high-water = %d, want max %d", d.Sim.HeapMax, 1000+envs-1)
	}
}
