// Package perf is the simulator's host-side self-profiling layer: exact
// per-layer call counters, the simulation kernels' aggregated work, and
// allocation totals, read by the benchmark of record (cmd/benchmark)
// without ever touching the simulation's virtual clock.
//
// perf sits strictly OUTSIDE the discrete-event-simulation determinism
// contract. It is the one non-cmd package the splitlint simclock analyzer
// permits to read host time (see DESIGN.md, "Performance telemetry"): every
// other package that needs a host timestamp (internal/sweep's per-cell wall
// counters, the progress heartbeat) must route the read through perf, so the
// determinism boundary stays a one-package audit.
//
// The probes mirror internal/trace's disabled-path discipline: when
// disabled (the default), Count is one atomic load and a branch — no
// allocation, no clock read. When enabled, Count adds one to its bucket.
// Probes never read the host clock; host time per layer comes from the
// benchmark's CPU profile. Nothing in this package feeds back into the
// simulation: enabling profiling cannot change a run's virtual-time
// behavior, which the golden-determinism tests pin.
//
// All state is process-global and atomic because host-parallel sweep cells
// (internal/sweep) run simulations on concurrent worker goroutines; their
// counters fold into one aggregate that TakeSnapshot reads and Delta
// brackets.
package perf

import (
	"runtime"
	"sync/atomic"
	"time"

	"splitio/internal/sim"
)

// Bucket names one counted hot path: the hot path of one stack layer (the
// scheduler bucket covers every elevator, counted where the block layer
// calls into it).
type Bucket uint8

// Buckets, top to bottom of the stack.
const (
	BucketVFS Bucket = iota
	BucketCache
	BucketFS
	BucketBlock
	BucketDevice
	BucketSched
	NumBuckets
)

var bucketNames = [NumBuckets]string{"vfs", "cache", "fs", "block", "device", "sched"}

func (b Bucket) String() string {
	if int(b) < len(bucketNames) {
		return bucketNames[b]
	}
	return "unknown"
}

// Buckets lists every bucket in stack order.
func Buckets() []Bucket {
	return []Bucket{BucketVFS, BucketCache, BucketFS, BucketBlock, BucketDevice, BucketSched}
}

var (
	enabled atomic.Bool
	calls   [NumBuckets]atomic.Int64

	// base anchors NowNS so deltas ride the monotonic clock (wall-clock
	// adjustments cannot produce negative spans).
	base = time.Now()
)

// Enable turns profiling on. Safe to call concurrently with instrumented
// simulations; hot paths observe the flag with one atomic load.
func Enable() { enabled.Store(true) }

// Disable turns profiling off; accumulated counters are kept.
func Disable() { enabled.Store(false) }

// SetSampleEvery does nothing. Probes count every call and never read the
// host clock, so there is no sampling period to set; the function remains
// only so existing callers keep compiling.
func SetSampleEvery(int64) {}

// NowNS returns nanoseconds of host time since process start, on the
// monotonic clock. It is the sanctioned host-clock read for host-side
// infrastructure (sweep wall counters, progress heartbeats); simulation
// packages must never call it.
func NowNS() int64 { return int64(time.Since(base)) }

// Count records one call into bucket b's hot path. Disabled: one atomic
// load and a branch.
func Count(b Bucket) {
	if enabled.Load() {
		calls[b].Add(1)
	}
}

// Simulation-kernel aggregate: every sim.Env that finishes under a
// profiled run folds its counters in here via ObserveSim (wired as
// sim.StatsHook by the benchmark).
var (
	simEnvs     atomic.Int64
	simEvents   atomic.Int64
	simSwitches atomic.Int64
	simHeapMax  atomic.Int64
)

// ObserveSim folds one finished environment's kernel counters into the
// global aggregate. Install it before a profiled run:
//
//	sim.StatsHook = perf.ObserveSim
//
// Environments report at Close, from whichever host goroutine closes them,
// so the fold is atomic. The heap high-water mark aggregates as a max.
func ObserveSim(s sim.Stats) {
	simEnvs.Add(1)
	simEvents.Add(s.Events)
	simSwitches.Add(s.Switches)
	for {
		cur := simHeapMax.Load()
		if int64(s.HeapMax) <= cur || simHeapMax.CompareAndSwap(cur, int64(s.HeapMax)) {
			return
		}
	}
}

// BucketStat is one bucket's accumulated counters.
type BucketStat struct {
	// Calls counts every Count while profiling was enabled.
	Calls int64
}

// SimStat is the aggregated kernel work of every environment observed so
// far (see ObserveSim).
type SimStat struct {
	Envs     int64
	Events   int64
	Switches int64
	HeapMax  int64
}

// MemStat is the allocation counters perf deltas per experiment.
type MemStat struct {
	// Mallocs is the cumulative count of heap objects allocated.
	Mallocs uint64
	// TotalAlloc is the cumulative bytes allocated for heap objects.
	TotalAlloc uint64
}

// Snapshot is one point-in-time reading of every profiling counter plus the
// runtime's allocation totals. Two snapshots bracket an experiment; Delta
// attributes the interval.
type Snapshot struct {
	Buckets [NumBuckets]BucketStat
	Sim     SimStat
	Mem     MemStat
}

// TakeSnapshot reads every counter and runtime.MemStats. It stops the world
// briefly (ReadMemStats), so call it between experiments, never inside a
// timed region.
func TakeSnapshot() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := Snapshot{
		Sim: SimStat{
			Envs:     simEnvs.Load(),
			Events:   simEvents.Load(),
			Switches: simSwitches.Load(),
			HeapMax:  simHeapMax.Load(),
		},
		Mem: MemStat{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc},
	}
	for i := range calls {
		snap.Buckets[i].Calls = calls[i].Load()
	}
	return snap
}

// Delta returns the counter movement from old to new (new - old). HeapMax
// is carried from the new snapshot: it is a high-water mark, not a counter.
func Delta(old, new Snapshot) Snapshot {
	d := Snapshot{
		Sim: SimStat{
			Envs:     new.Sim.Envs - old.Sim.Envs,
			Events:   new.Sim.Events - old.Sim.Events,
			Switches: new.Sim.Switches - old.Sim.Switches,
			HeapMax:  new.Sim.HeapMax,
		},
		Mem: MemStat{
			Mallocs:    new.Mem.Mallocs - old.Mem.Mallocs,
			TotalAlloc: new.Mem.TotalAlloc - old.Mem.TotalAlloc,
		},
	}
	for i := range d.Buckets {
		d.Buckets[i].Calls = new.Buckets[i].Calls - old.Buckets[i].Calls
	}
	return d
}

// ResetForTest zeroes every global counter and disables profiling. Tests
// only: the global aggregate is otherwise monotone for the process life.
func ResetForTest() {
	enabled.Store(false)
	simEnvs.Store(0)
	simEvents.Store(0)
	simSwitches.Store(0)
	simHeapMax.Store(0)
	for i := range calls {
		calls[i].Store(0)
	}
}
