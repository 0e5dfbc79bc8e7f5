// Sweep dispatch: every experiment is a list of independent simulations,
// its cells. A cell pairs a configuration key with a body that builds its
// own machine (newKernel or sim.NewEnv), runs it, tears it down with
// defer, and returns plain values. runCells sends the cells through the
// Options.Runner worker pool and returns their results in cell order, and
// the experiment renders its table from them in that order, so the output
// is byte-identical at every worker count.

package exp

import (
	"fmt"
	"maps"

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

// cell is one simulation of an experiment: key is its configuration,
// unique within the experiment, and run its body. run must share no
// mutable state with other cells: it may be called on any worker.
type cell[R any] struct {
	key string
	run func() R
}

// runCells runs each cell as one sweep cell of experiment and returns the
// results in cell order. A cell error is a bug in a deterministic
// simulation (or a worker panic), not an input condition, so it aborts the
// experiment by panicking with the first failed cell's identity and stack.
func runCells[R any](o Options, experiment string, cells []cell[R]) []R {
	res := make([]R, len(cells))
	sc := make([]sweep.Cell, len(cells))
	for i, c := range cells {
		sc[i] = sweep.Cell{Key: o.cellKey(experiment, c.key), Run: func() { res[i] = c.run() }}
	}
	if err := sweep.FirstErr(o.cellRunner().Run(sc)); err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return res
}

// row is the result of a cell that renders as one table row: the row's
// columns and the metrics it contributes.
type row struct {
	cols    []string
	metrics map[string]float64
}

// addRows appends rows to t in order and merges their metrics.
func (t *Table) addRows(rows []row) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, r.cols)
		maps.Copy(t.Metrics, r.metrics)
	}
}
