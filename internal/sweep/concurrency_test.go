package sweep_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"splitio/internal/metrics"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/sweep"
	"splitio/internal/trace"
)

// simCells builds one cell per slot of out; each constructs the full
// per-cell state an experiment would — a sim.Env, a metrics.Registry, a
// trace.Tracer with a sink — exercises it, asserts the per-cell counters
// from inside the cell, and writes its summary into its slot. Shared state
// across workers is exactly what production shares: the global perf
// counters (probe counts and the sim.StatsHook fold).
func simCells(out []string) []sweep.Cell {
	cells := make([]sweep.Cell, len(out))
	for i := range cells {
		seed := int64(i + 1)
		cells[i] = sweep.Cell{
			Key: sweep.Key{Experiment: "conc", Config: fmt.Sprintf("cell=%d", i), Seed: seed},
			Run: func() {
				perf.Count(perf.BucketSched)
				reg := metrics.NewRegistry()
				work := reg.Counter("cell.work")
				tr := trace.New()
				sink := &countSink{}
				tr.Attach(sink)
				tr.Enable()
				for j := 0; j < 32; j++ {
					tr.Record(trace.Event{Layer: trace.LayerBlock, Op: "conc", End: sim.Time(j)})
					work.Inc()
				}
				if got, want := sink.n, 32; got != want {
					panic(fmt.Sprintf("trace sink saw %d events, want %d", got, want))
				}
				env := sim.NewEnv(seed)
				env.Go("spin", func(p *sim.Proc) {
					for j := 0; j < 10; j++ {
						p.Sleep(time.Millisecond)
					}
				})
				env.RunAll()
				events := env.Stats().Events
				env.Close()
				out[i] = fmt.Sprintf(`{"seed":%d,"events":%d,"work":%.0f}`, seed, events, work.Value())
			},
		}
	}
	return cells
}

// countSink is a trace sink that counts the events it is handed.
type countSink struct{ n int }

func (c *countSink) Consume(trace.Event) { c.n++ }

// TestConcurrentCellsSharedCounters runs cells in parallel with the shared
// perf counters enabled and the sim.StatsHook installed — the exact sharing
// pattern the benchmark's traced rep uses — and checks that per-cell state stays
// isolated (results byte-identical to a serial run) while the global
// aggregates account for every cell. Run under -race this is the
// determinism contract's concurrency test.
func TestConcurrentCellsSharedCounters(t *testing.T) {
	perf.ResetForTest()
	perf.Enable()
	defer perf.Disable()
	prevHook := sim.StatsHook
	sim.StatsHook = perf.ObserveSim
	defer func() { sim.StatsHook = prevHook }()

	const n = 24
	before := perf.TakeSnapshot()

	var calls, lastDone atomic.Int64
	par := &sweep.Runner{Workers: 8}
	par.Progress = func(done, total int) {
		calls.Add(1)
		lastDone.Store(int64(done))
		if total != n {
			t.Errorf("progress total %d, want %d", total, n)
		}
	}
	parOut := make([]string, n)
	if err := sweep.FirstErr(par.Run(simCells(parOut))); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Errorf("progress called %d times, want %d", got, n)
	}
	if got := lastDone.Load(); got != n {
		t.Errorf("final progress done %d, want %d", got, n)
	}

	ser := &sweep.Runner{Workers: 1}
	serOut := make([]string, n)
	if err := sweep.FirstErr(ser.Run(simCells(serOut))); err != nil {
		t.Fatal(err)
	}
	for i := range parOut {
		if parOut[i] == "" || parOut[i] != serOut[i] {
			t.Errorf("cell %d: parallel %q != serial %q", i, parOut[i], serOut[i])
		}
	}

	d := perf.Delta(before, perf.TakeSnapshot())
	if got, want := d.Sim.Envs, int64(2*n); got != want {
		t.Errorf("global perf saw %d envs, want %d", got, want)
	}
	if d.Sim.Events <= 0 || d.Sim.Switches <= 0 {
		t.Errorf("global sim counters did not accumulate: %+v", d.Sim)
	}
	if got, want := d.Buckets[perf.BucketSched].Calls, int64(2*n); got != want {
		t.Errorf("sched bucket calls %d, want %d (one Count per cell per run)", got, want)
	}

	wall, max := par.Wall()
	if wall <= 0 || max <= 0 || max > wall {
		t.Errorf("wall counters incoherent: total=%d max=%d", wall, max)
	}
}

// TestProgressWriter checks the heartbeat's shape: the final cell always
// prints, with the full done/total count.
func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	r := &sweep.Runner{Workers: 4}
	r.Progress = r.ProgressWriter(&buf)
	cells := make([]sweep.Cell, 6)
	for i := range cells {
		cells[i] = sweep.Cell{
			Key: sweep.Key{Experiment: "hb", Config: fmt.Sprintf("cell=%d", i), Seed: int64(i)},
			Run: func() {},
		}
	}
	if err := sweep.FirstErr(r.Run(cells)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sweep: 6/6 cells elapsed") {
		t.Errorf("heartbeat missing final line: %q", out)
	}
	if !strings.Contains(out, "eta") {
		t.Errorf("heartbeat missing eta: %q", out)
	}
}
