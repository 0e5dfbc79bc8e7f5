// Event-loop invariants over a real kernel run: the canonical property
// workload is driven with a sim event observer installed, checking the
// run-to-completion loop's contract at full-system scale — no handler ever
// observes a stale Env.Now(), virtual time is monotone across every popped
// event, the observer count matches the Stats.Events delta exactly (no
// event runs unobserved, none is double-counted), and the heap high-water
// mark lands in a sane band for the workload.

package schedtest

import (
	"testing"
	"time"

	"splitio/internal/core"
	"splitio/internal/sched/cfq"
	"splitio/internal/sim"
	"splitio/internal/workload"
)

// TestEventLoopInvariants runs the property workload under CFQ (the
// scheduler with the busiest timer behavior: anticipation idling plus
// epoch rotation) and asserts the loop contract holds with every kernel
// daemon running as a handler. The subtest names the engine under test, so
// results stay comparable with runs recorded when a coroutine engine
// existed beside it.
func TestEventLoopInvariants(t *testing.T) {
	t.Run("handler", func(t *testing.T) {
		opts := core.DefaultOptions()
		opts.Seed = 1
		cc := SmallCache()
		opts.Cache = &cc
		env := sim.NewEnv(1)
		k := core.NewKernelOn(env, opts, cfq.Factory)
		defer env.Close()

		before := env.Stats()
		var calls int64
		stale := 0
		backwards := 0
		last := sim.Time(-1)
		env.SetEventObserver(func(at sim.Time) {
			calls++
			if at < last {
				backwards++
			}
			last = at
			if at != env.Now() {
				stale++
			}
		})

		workload.Spawn(k, propWorkload)
		k.Run(5 * time.Minute)
		env.SetEventObserver(nil)

		after := env.Stats()
		delta := after.Events - before.Events
		if calls != delta {
			t.Errorf("observer ran %d times but Stats().Events grew by %d", calls, delta)
		}
		if calls == 0 {
			t.Fatalf("observer never ran; the workload executed no events")
		}
		if backwards != 0 {
			t.Errorf("virtual time went backwards across %d events", backwards)
		}
		if stale != 0 {
			t.Errorf("%d events ran against a stale Env.Now()", stale)
		}
		// The high-water mark is exact (see sim.TestHeapMaxExact); here just
		// pin it to a sane band: more than a handful of standing timers,
		// nowhere near the event total (which would mean the loop was hoarding
		// instead of draining).
		if hm := int64(after.HeapMax); hm < 4 || hm > delta/2 {
			t.Errorf("heap high-water %d outside sane band [4, %d] for %d events",
				after.HeapMax, delta/2, delta)
		}
		t.Logf("cfq: %d events, %d switches, heap high-water %d",
			delta, after.Switches-before.Switches, after.HeapMax)
	})
}
