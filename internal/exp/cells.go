// Sweep dispatch: experiments whose bodies are a cross-product of
// independent simulations (crashsweep, report, sched comparisons,
// ablations) build their per-configuration runs as sweep.Cells and send
// them through the Options.Runner worker pool. Each cell constructs its
// own kernel and returns a JSON payload; the experiment then merges
// payloads in canonical cell order, so the rendered table is byte-identical
// at every worker count.

package exp

import (
	"encoding/json"
	"fmt"

	"splitio/internal/sweep"
)

// cellKey canonicalizes a cell's cache identity. config must encode
// everything that distinguishes the cell within the experiment; scale is
// appended because it changes measurement windows (and therefore results),
// and the -device override because it swaps the disk model under every
// kernel the cell builds.
func (o Options) cellKey(experiment, config string) sweep.Key {
	if o.Device != "" {
		config += " device=" + o.Device
	}
	return sweep.NewKey(experiment, fmt.Sprintf("%s scale=%g", config, o.Scale), o.Seed)
}

// cellRunner picks the runner cells execute on. Runs that carry cross-cell
// observers — a shared -trace tracer, a -stats collector, or a -slo monitor
// collector — fall back to an inline serial, uncached runner: the
// observers' side effects live outside the cell payloads, so skipping or
// reordering cells would corrupt them. (The slo experiment itself stays
// parallel: it builds its monitors inside each cell.)
func (o Options) cellRunner() *sweep.Runner {
	if o.Runner == nil || o.Tracer != nil || o.Metrics != nil || o.Monitor != nil {
		return &sweep.Runner{Workers: 1}
	}
	return o.Runner
}

// runCells executes cells and hands each payload, in canonical cell order,
// to merge. A cell error is a bug in a deterministic simulation (or a
// worker panic), not an input condition, so it aborts the experiment by
// panicking with the cell's identity and stack.
func (o Options) runCells(cells []sweep.Cell, merge func(i int, data []byte)) {
	results := o.cellRunner().Run(cells)
	for i := range results {
		if results[i].Err != nil {
			panic(fmt.Sprintf("exp: %v", results[i].Err))
		}
		merge(i, results[i].Data)
	}
}

// jsonCell wraps a payload-producing function as a cell body.
func jsonCell(fn func() any) func() ([]byte, error) {
	return func() ([]byte, error) {
		return json.Marshal(fn())
	}
}

// mustUnmarshal decodes a cell payload produced by jsonCell.
func mustUnmarshal(data []byte, v any) {
	if err := json.Unmarshal(data, v); err != nil {
		panic(fmt.Sprintf("exp: corrupt cell payload: %v", err))
	}
}
