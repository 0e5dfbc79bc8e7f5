// Sweep dispatch: experiments whose bodies are a cross-product of
// independent simulations (crashsweep, report, sched comparisons,
// ablations) hand runCells their configurations and a cell body. runCells
// builds one sweep.Cell per configuration, sends them through the
// Options.Runner worker pool, and returns the typed results in
// configuration order, so the rendered table is byte-identical at every
// worker count. Each cell constructs its own kernel.

package exp

import (
	"fmt"

	"splitio/internal/sweep"
)

// cellKey canonicalizes a cell's identity. config must encode everything
// that distinguishes the cell within the experiment; scale is appended
// because it changes measurement windows (and therefore results), and the
// -device override because it swaps the disk model under every kernel the
// cell builds.
func (o Options) cellKey(experiment, config string) sweep.Key {
	if o.Device != "" {
		config += " device=" + o.Device
	}
	return sweep.Key{Experiment: experiment, Config: fmt.Sprintf("%s scale=%g", config, o.Scale), Seed: o.Seed}
}

// cellRunner picks the runner cells execute on. Runs that carry cross-cell
// observers — a shared -trace tracer, a -stats collector, or a -slo monitor
// collector — fall back to an inline serial runner: the observers' side
// effects live outside the cell results, so reordering cells would corrupt
// them. (The slo experiment itself stays parallel: it builds its monitors
// inside each cell.)
func (o Options) cellRunner() *sweep.Runner {
	if o.Runner == nil || o.Tracer != nil || o.Metrics != nil || o.Monitor != nil {
		return &sweep.Runner{Workers: 1}
	}
	return o.Runner
}

// runCells runs run(c) as one sweep cell per configuration c, keyed
// key(c) within experiment, and returns the results in configuration
// order. A cell error is a bug in a deterministic simulation (or a worker
// panic), not an input condition, so it aborts the experiment by panicking
// with the first failed cell's identity and stack.
func runCells[C, R any](o Options, experiment string, configs []C, key func(C) string, run func(C) R) []R {
	res := make([]R, len(configs))
	cells := make([]sweep.Cell, len(configs))
	for i, c := range configs {
		cells[i] = sweep.Cell{Key: o.cellKey(experiment, key(c)), Run: func() { res[i] = run(c) }}
	}
	if err := sweep.FirstErr(o.cellRunner().Run(cells)); err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return res
}

// schedKey keys a cell by its scheduler alone.
func schedKey(sched string) string { return "sched=" + sched }
