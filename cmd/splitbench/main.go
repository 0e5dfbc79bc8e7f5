// Command splitbench regenerates the paper's tables and figures as text.
//
// Usage:
//
//	splitbench [-scale F] [-seed N] [-seeds A..B] [-j N] [-trace FILE] [-stats] [experiment ...]
//
// With no arguments it runs every experiment (fig1..fig21, table1..table3,
// plus extensions such as crashsweep) in paper order. Scale < 1 shortens
// measurement windows proportionally.
//
//	splitbench -scale 0.2 fig12 fig13
//
// The evaluation matrix is embarrassingly parallel at the host level: every
// cell of an experiment (one scheduler × file system × disk × seed point)
// is its own deterministic simulation. -j N fans those cells across N
// worker goroutines (0 = one per CPU); results always merge in canonical
// cell order, so the output is byte-identical at any -j. -seeds A..B runs
// each experiment once per seed of the inclusive range:
//
//	splitbench -scale 0.1 -j 8 -seeds 1..8 crashsweep
//
// The crashsweep experiment fault-injects every scheduler on both file
// systems and disks, sweeps crash images over each run's persistence log,
// and reports durability-invariant violations (zero on a correct stack):
//
//	splitbench -scale 0.1 crashsweep
//
// -trace FILE records a cross-layer request trace of the run and streams it
// to FILE as Chrome trace_event JSON (load it at chrome://tracing or
// https://ui.perfetto.dev); a per-request latency breakdown and summary are
// printed to stderr. -stats prints each simulated machine's metric registry
// after the run, including per-layer latency histograms from attribution.
// Both observe every kernel of the run, so they force cells inline (-j is
// ignored for the experiments' simulation cells).
//
// The report subcommand runs the entangled antagonist workload under a set
// of schedulers and renders per-process latency blame tables plus detected
// priority inversions (text or JSON); -diff compares two archived reports.
// Any inversion under a split scheduler makes the run exit nonzero:
//
//	splitbench -scale 0.2 report -format json -o report.json
//	splitbench report -diff old.json new.json
//
// The monitor subcommand runs the same workload with a windowed SLO monitor
// attached (-slo rule specs, -slo-window) and prints each machine's
// breaches and final scheduler snapshot; -postmortem writes flight-recorder
// bundles. A breach under a split scheduler makes the run exit nonzero:
//
//	splitbench -scale 0.1 -seed 1 monitor -schedulers cfq,afq
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"splitio/internal/core"
	"splitio/internal/exp"
	"splitio/internal/sweep"
	"splitio/internal/trace"
)

// maxSeedRange bounds -seeds so a typo ("1..1000000") fails fast instead of
// scheduling a million runs.
const maxSeedRange = 4096

// resolve maps experiment IDs to experiments, defaulting to all of them. An
// unknown ID yields an error naming the offending experiment.
func resolve(ids []string) ([]exp.Experiment, error) {
	if len(ids) == 0 {
		return exp.All, nil
	}
	out := make([]exp.Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := exp.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (try -list)", id)
		}
		out = append(out, e)
	}
	return out, nil
}

// parseSeeds parses a -seeds value: "A..B" (inclusive range) or a single
// seed "N". The empty string yields nil (use -seed).
func parseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	lo, hi, found := strings.Cut(s, "..")
	a, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -seeds %q: %v", s, err)
	}
	b := a
	if found {
		if b, err = strconv.ParseInt(strings.TrimSpace(hi), 10, 64); err != nil {
			return nil, fmt.Errorf("bad -seeds %q: %v", s, err)
		}
	}
	if b < a {
		return nil, fmt.Errorf("bad -seeds %q: end %d before start %d", s, b, a)
	}
	if b-a+1 > maxSeedRange {
		return nil, fmt.Errorf("bad -seeds %q: range of %d seeds exceeds the %d cap", s, b-a+1, maxSeedRange)
	}
	out := make([]int64, 0, b-a+1)
	for v := a; v <= b; v++ {
		out = append(out, v)
	}
	return out, nil
}

// checkDevice validates a -device value: empty (each experiment's own
// disk) or one of the disk models.
func checkDevice(kind string) error {
	if kind == "" || slices.Contains(core.DiskKinds, core.DiskKind(kind)) {
		return nil
	}
	known := make([]string, len(core.DiskKinds))
	for i, d := range core.DiskKinds {
		known[i] = string(d)
	}
	return fmt.Errorf("unknown -device %q (have %s)", kind, strings.Join(known, ", "))
}

func main() {
	// All work happens in run so the pprof deferred stops execute before
	// the process exits (os.Exit skips deferred calls).
	os.Exit(run())
}

func run() int {
	scale := flag.Float64("scale", 1.0, "measurement-window scale factor")
	seed := flag.Int64("seed", 1, "deterministic random seed")
	seeds := flag.String("seeds", "", "seed range `A..B` (inclusive); runs each experiment once per seed, overriding -seed")
	jobs := flag.Int("j", 1, "parallel sweep workers for independent simulation cells (0 = one per CPU)")
	list := flag.Bool("list", false, "list experiments and exit")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON trace to `FILE`")
	stats := flag.Bool("stats", false, "print per-machine metric registries after the run")
	deviceKind := flag.String("device", "", "override the disk model for every kernel: hdd, ssd, or ftlssd (ignored by the experiments that pin their own disk: fig9, fig12, fig19, gcsweep, crashsweep)")
	sloSpec := flag.String("slo", "", "attach an SLO monitor to every kernel; semicolon-separated rule `specs` like 'pid=100 op=fsync p99<10ms'")
	sloWindow := flag.Duration("slo-window", 500*time.Millisecond, "SLO evaluation window (virtual time), with -slo")
	postmortem := flag.String("postmortem", "", "write flight-recorder post-mortem bundles (JSON) to `FILE` when the run fails or an invariant trips")
	progress := flag.Bool("progress", false, "print a sweep progress heartbeat (cells done/total, ETA) to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to `FILE`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to `FILE`")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: splitbench [-scale F] [-seed N] [-seeds A..B] [-j N] [-trace FILE] [-stats] [-progress] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "       splitbench [-scale F] [-seed N] [-j N] report [-format text|json] [-o FILE] [-diff OLD NEW]\n")
		fmt.Fprintf(os.Stderr, "       splitbench [-scale F] [-seed N] [-slo SPECS] [-slo-window D] [-trace FILE] [-postmortem FILE] monitor [-schedulers LIST]\n\nexperiments:\n")
		for _, e := range exp.All {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range exp.All {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if err := checkDevice(*deviceKind); err != nil {
		fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not collectible garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			}
		}()
	}

	runner := &sweep.Runner{Workers: *jobs}
	if *progress {
		runner.Progress = runner.ProgressWriter(os.Stderr)
	}

	if args := flag.Args(); len(args) > 0 && args[0] == "report" {
		opts := exp.Options{Scale: *scale, Seed: *seed, Runner: runner, Device: *deviceKind}
		code := runReport(opts, args[1:], os.Stdout, os.Stderr)
		sweepSummary(runner)
		if code == 1 && *postmortem != "" {
			if err := writePostmortem(*postmortem, nil,
				[]string{"report: split-scheduler inversions detected"}); err != nil {
				fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			}
		}
		return code
	}

	if args := flag.Args(); len(args) > 0 && args[0] == "monitor" {
		opts := exp.Options{Scale: *scale, Seed: *seed, Device: *deviceKind}
		return runMonitorCmd(opts, *sloWindow, *sloSpec, *traceFile, *postmortem, args[1:], os.Stdout, os.Stderr)
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
		return 2
	}
	if seedList == nil {
		seedList = []int64{*seed}
	}

	opts := exp.Options{Scale: *scale, Seed: *seed, Runner: runner, Device: *deviceKind}
	if *sloSpec != "" {
		rules, err := parseRules(*sloSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 2
		}
		opts.Monitor = &exp.MonitorCollector{Window: *sloWindow, Rules: rules}
	}
	var finishTrace func([]trace.CounterSample) (int, error)
	var rollup *trace.Rollup
	if *traceFile != "" {
		opts.Tracer, finishTrace, err = createTrace(*traceFile, opts.Monitor != nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 1
		}
		rollup = trace.NewRollup(20)
		opts.Tracer.Attach(rollup)
	}
	if *stats {
		opts.Metrics = &exp.StatsCollector{}
	}
	exps, err := resolve(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
		return 2
	}
	failed := false
	var failures []string
	for _, sd := range seedList {
		opts.Seed = sd
		if len(seedList) > 1 {
			fmt.Printf("\n######## seed %d ########\n", sd)
		}
		for _, e := range exps {
			// Host-side wall time for the progress banner; cmd/ packages are
			// outside the simclock contract (see DESIGN.md, "Determinism
			// contract") and it never feeds back into the simulation.
			start := time.Now()
			tab := e.Run(opts)
			printTable(tab, time.Since(start))
			// Checking experiments (crashsweep) report invariant violations via
			// this metric; a nonzero count fails the run so `make crashsweep`
			// gates CI.
			if tab.Metrics["violations_total"] > 0 {
				fmt.Fprintf(os.Stderr, "splitbench: %s reported %.0f invariant violations\n",
					tab.ID, tab.Metrics["violations_total"])
				failures = append(failures, fmt.Sprintf("seed %d: %s reported %.0f invariant violations",
					sd, tab.ID, tab.Metrics["violations_total"]))
				failed = true
			}
		}
	}

	if finishTrace != nil {
		n, err := finishTrace(monitorCounters(opts.Monitor))
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "\ntrace: %d events -> %s\n\n", n, *traceFile)
		rollup.WriteRequests(os.Stderr)
		rollup.WriteSummary(os.Stderr)
	}
	if opts.Metrics != nil {
		for _, m := range opts.Metrics.Machines {
			fmt.Printf("\nmachine %s:\n", m.Label)
			m.Registry.WriteText(os.Stdout)
		}
	}
	if opts.Monitor != nil {
		printMonitors(os.Stdout, opts.Monitor)
	}
	if *postmortem != "" {
		if err := writePostmortem(*postmortem, opts.Monitor, failures); err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 1
		}
	}
	sweepSummary(runner)
	if failed {
		return 1
	}
	return 0
}

// sweepSummary reports cell totals and wall-time accounting on stderr
// (stdout stays byte-identical across -j settings).
func sweepSummary(r *sweep.Runner) {
	cells, _, errs := r.Stats()
	if cells == 0 {
		return
	}
	w := "auto"
	if r.Workers > 0 {
		w = fmt.Sprint(r.Workers)
	}
	wallNS, maxNS := r.Wall()
	fmt.Fprintf(os.Stderr, "sweep: %d cells (%d failed) across %s workers; cell wall %v total, %v slowest\n",
		cells, errs, w, time.Duration(wallNS).Round(time.Millisecond), time.Duration(maxNS).Round(time.Millisecond))
}

// createTrace opens path up front, so a bad path fails before the run, not
// after it, and returns an enabled tracer whose ChromeWriter sink streams
// the run's trace_event JSON into the file. finish appends the monitor's
// counter tracks (monitored names their process in the header) and the
// footer, closes the file, and returns the number of events written.
func createTrace(path string, monitored bool) (tr *trace.Tracer, finish func([]trace.CounterSample) (int, error), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	chrome := trace.NewChromeWriter(f, monitored)
	tr = trace.New()
	tr.Attach(chrome)
	tr.Enable()
	return tr, func(counters []trace.CounterSample) (int, error) {
		err := chrome.Close(counters)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return chrome.Count(), err
	}, nil
}

func printTable(t *exp.Table, wall time.Duration) {
	fmt.Printf("\n%s\n%s (wall %v)\n", strings.Repeat("=", len(t.Title)), t.Title, wall.Round(time.Millisecond))
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, s := range t.Series {
		fmt.Printf("  %s (every %v):", s.Label, s.Step)
		for _, v := range s.Values {
			fmt.Printf(" %.0f", v)
		}
		fmt.Println()
	}
	if t.Notes != "" {
		fmt.Printf("  note: %s\n", t.Notes)
	}
}
