// Sweep dispatch: experiments whose bodies are a cross-product of
// independent simulations (crashsweep, report, sched comparisons,
// ablations) build their per-configuration runs as sweep.Cells and send
// them through the Options.Runner worker pool. Each cell constructs its
// own kernel and stores its typed result in its own index of a slice the
// experiment owns; after runCells returns, the experiment merges the slice
// in canonical cell order, so the rendered table is byte-identical at
// every worker count.

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

// runCells executes cells; on return every cell has filled its result
// slot. A cell error is a bug in a deterministic simulation (or a worker
// panic), not an input condition, so it aborts the experiment by panicking
// with the first failed cell's identity and stack.
func (o Options) runCells(cells []sweep.Cell) {
	if err := sweep.FirstErr(o.cellRunner().Run(cells)); err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
}
