// Package sweep is the host-side parallel experiment runner: it fans a
// matrix of independent simulation cells — one (experiment, config, seed)
// point each — across a bounded pool of worker goroutines.
//
// sweep lives strictly OUTSIDE the discrete-event-simulation core. Each
// cell constructs its own sim.Env, core.Kernel, metrics.Registry, and
// trace.Tracer, so no simulation state is ever shared between workers; the
// DES determinism contract (one runnable goroutine at a time *per
// environment*, see DESIGN.md "Determinism contract") is untouched because
// parallelism happens between simulations, never inside one. That is what
// makes the paper's evaluation matrix — schedulers × file systems × disks ×
// seeds — embarrassingly parallel at the host level.
//
// Each cell stores its result in a slot the caller owns — conventionally
// its own index of a results slice — so results are read back in
// canonical cell order, never completion order, and any output assembled
// from them is byte-identical at every worker count. A panicking cell is
// surfaced as that cell's error — the pool never deadlocks and the
// remaining cells still run.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"splitio/internal/perf"
)

// Key is a cell's identity, used to name it in errors. Two cells with
// equal Keys must produce identical results — that is the contract that
// makes serial and parallel runs byte-identical.
type Key struct {
	// Experiment is the experiment name (e.g. "crashsweep").
	Experiment string
	// Config is the canonical cell configuration, e.g.
	// "sched=cfq fs=ext4 disk=hdd scale=0.1". It must encode everything
	// that distinguishes this cell from its siblings.
	Config string
	// Seed is the cell's deterministic random seed.
	Seed int64
}

func (k Key) String() string {
	return fmt.Sprintf("%s[%s seed=%d]", k.Experiment, k.Config, k.Seed)
}

// Cell is one independent unit of a sweep: a deterministic function of its
// Key. Run must not share mutable state with any other cell — it is called
// from an arbitrary worker goroutine — and stores its result in a slot no
// other cell writes; the Run call's return is the barrier after which the
// caller may read every slot.
type Cell struct {
	Key Key
	Run func()
}

// Runner executes cells on a bounded worker pool.
//
// Workers <= 0 means one worker per available CPU. Workers == 1 runs every
// cell inline on the calling goroutine, which is the fully serial mode —
// byte-for-byte equivalent to the parallel modes by construction, since
// cells share nothing and results merge in canonical order either way.
//
// The zero value is a serial runner. A Runner is safe for use from
// multiple goroutines; the counters behind Stats accumulate across Run
// calls, so one Runner threaded through a whole splitbench invocation
// reports totals for the run.
type Runner struct {
	Workers int
	// Progress, when non-nil, is called after each cell resolves with the
	// count of cells finished so far in the current Run call and the call's
	// total. It runs on worker goroutines and must be goroutine-safe; see
	// ProgressWriter for the standard heartbeat implementation.
	Progress func(done, total int)

	cells atomic.Int64
	errs  atomic.Int64
	// Host wall-clock accounting (via perf.NowNS — sweep never reads the
	// clock itself, keeping internal/perf the module's only host-time
	// surface). wallNS sums per-cell wall time across workers, so it can
	// exceed real elapsed time under -j; maxNS is the slowest single cell.
	wallNS atomic.Int64
	maxNS  atomic.Int64
}

// Run executes every cell and returns each cell's error (nil on success)
// in canonical cell order.
func (r *Runner) Run(cells []Cell) []error {
	out := make([]error, len(cells))
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	var done atomic.Int64
	finish := func() {
		if r.Progress != nil {
			r.Progress(int(done.Add(1)), len(cells))
		}
	}
	if workers <= 1 {
		for i := range cells {
			out[i] = r.runCell(cells[i])
			finish()
		}
		return out
	}
	// Each worker claims cell indices from a shared channel; the cell writes
	// its result into its own slot and the worker its error into out[i].
	// Distinct slots mean the only synchronization the caller's merge needs
	// is the WaitGroup barrier.
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = r.runCell(cells[i])
				finish()
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// runCell executes one cell under a panic guard, which converts a crashing
// cell into its error so one broken configuration fails loudly without
// wedging the pool or killing the sibling cells. (Goroutines a crashed
// simulation leaves parked are leaked, not joined — the process is
// expected to report the error and exit.)
func (r *Runner) runCell(c Cell) (err error) {
	start := perf.NowNS()
	defer func() {
		// Registered first so it runs after the panic guard below: a
		// crashing cell still gets its wall time charged.
		d := perf.NowNS() - start
		r.wallNS.Add(d)
		for {
			cur := r.maxNS.Load()
			if d <= cur || r.maxNS.CompareAndSwap(cur, d) {
				break
			}
		}
	}()
	r.cells.Add(1)
	defer func() {
		if p := recover(); p != nil {
			r.errs.Add(1)
			err = fmt.Errorf("sweep: cell %s panicked: %v\n%s", c.Key, p, debug.Stack())
		}
	}()
	c.Run()
	return nil
}

// Stats reports how many cells this runner has run and how many failed,
// across all Run calls so far. The middle result is always 0: it counted
// cells served from a result cache that no longer exists, and stays only
// because the benchmark harness (cmd/benchmark) reads three results.
func (r *Runner) Stats() (cells, cached, errs int64) {
	return r.cells.Load(), 0, r.errs.Load()
}

// Wall reports the summed per-cell host wall time and the slowest single
// cell, across all Run calls so far. The sum counts worker time, so at -j N
// it can be up to N times the real elapsed time.
func (r *Runner) Wall() (totalNS, maxNS int64) {
	return r.wallNS.Load(), r.maxNS.Load()
}

// progressEveryNS throttles the ProgressWriter heartbeat.
const progressEveryNS = 250 * int64(time.Millisecond)

// ProgressWriter returns a Progress callback that writes a throttled
// heartbeat to w: cells done/total, elapsed wall time, and a linear ETA
// from the mean cell rate. The final cell always prints, so a finished
// sweep never shows a stale count.
func (r *Runner) ProgressWriter(w io.Writer) func(done, total int) {
	var mu sync.Mutex
	start := perf.NowNS()
	var lastNS int64
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := perf.NowNS()
		if done < total && now-lastNS < progressEveryNS {
			return
		}
		lastNS = now
		elapsed := time.Duration(now - start)
		eta := "?"
		if done > 0 {
			eta = (elapsed / time.Duration(done) * time.Duration(total-done)).Round(time.Second).String()
		}
		fmt.Fprintf(w, "sweep: %d/%d cells elapsed %s eta %s\n",
			done, total, elapsed.Round(time.Second), eta)
	}
}

// FirstErr returns the first non-nil error in errs, or nil.
func FirstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
