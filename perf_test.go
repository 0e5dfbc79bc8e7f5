// Integration test for the self-profiling determinism boundary: enabling
// internal/perf must not change what a simulation does, only observe how
// fast the host executes it. The pin is byte-identity of the exported
// trace between an unprofiled run and a profiled run of the same seed —
// the same golden the tracing suite uses.
package splitio_test

import (
	"bytes"
	"testing"

	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

func TestPerfProfilingPreservesGoldenTrace(t *testing.T) {
	export := func() []byte {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tracedRun(t, 1)); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes()
	}

	plain := export()

	// Profiled run: probe counters on and StatsHook installed, as the
	// benchmark's traced rep runs.
	perf.ResetForTest()
	perf.Enable()
	prevHook := sim.StatsHook
	sim.StatsHook = perf.ObserveSim
	defer func() {
		sim.StatsHook = prevHook
		perf.ResetForTest()
	}()
	profiled := export()

	if !bytes.Equal(plain, profiled) {
		t.Fatal("profiling changed the exported trace; perf leaked into virtual time")
	}

	// The run must actually have been observed. Kernels report at Close —
	// tracedRun's machine closes in t.Cleanup, after this snapshot — so
	// drive one throwaway env through its full lifecycle for the hook check.
	env := sim.NewEnv(99)
	env.Schedule(0, func() {})
	env.RunAll()
	env.Close()
	s := perf.TakeSnapshot()
	if s.Sim.Envs == 0 || s.Sim.Events == 0 {
		t.Errorf("StatsHook folded no sim stats: %+v", s.Sim)
	}
	var calls int64
	for _, bkt := range perf.Buckets() {
		calls += s.Buckets[bkt].Calls
	}
	if calls == 0 {
		t.Error("no instrumented layer counted a call during the profiled run")
	}
}
