// Command splitbench regenerates the paper's tables and figures as text.
//
// Usage:
//
//	splitbench [flags] [experiment ...]
//	splitbench [flags] report [-format text|json] [-o FILE] [-schedulers LIST]
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
// https://ui.perfetto.dev); the latency-attribution blame table (per
// (pid, op): count, p50/p95/p99, mean throttle/journal/queue/device/other
// time) is printed to stderr. -stats prints each simulated machine's
// metric registry after the run, including per-layer latency histograms
// from attribution. -slo SPECS attaches a windowed SLO monitor to every
// kernel and prints each machine's verdict after the run; -postmortem FILE
// writes the flight-recorder bundles and failure lines when the run fails
// or a monitor trips. -trace, -stats and -slo observe every kernel of the
// run, so they force cells inline (-j is ignored for the simulation cells).
//
// The report subcommand runs the entangled antagonist workload (a
// best-effort fsync appender against an idle-class bulk writer) under a set
// of schedulers and renders per-process latency blame tables plus detected
// priority inversions, as text or JSON:
//
//	splitbench -scale 0.2 report -format json -o report.json
//
// The global flags mean the same for report as for experiments. An
// inversion, or with -slo an SLO breach, under a scheduler that isolates
// the idle writer (afq, gc-afq, split-token) makes the run exit 1:
//
//	splitbench -scale 0.1 -seed 1 -slo 'pid=100 op=fsync p99<250ms' report -schedulers cfq,afq,split-token
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"splitio/internal/attr"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It builds one exp.Options from the global
// flags, runs the experiments or the report subcommand under it, then
// writes what the observability flags asked for. It returns the exit
// code: 1 when a gate fails or an output cannot be written, 2 on usage
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("splitbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	scale := fl.Float64("scale", 1.0, "measurement-window scale factor")
	seed := fl.Int64("seed", 1, "deterministic random seed")
	seeds := fl.String("seeds", "", "seed range `A..B` (inclusive); runs each experiment once per seed, overriding -seed")
	jobs := fl.Int("j", 1, "parallel sweep workers for independent simulation cells (0 = one per CPU)")
	list := fl.Bool("list", false, "list experiments and exit")
	traceFile := fl.String("trace", "", "write a Chrome trace_event JSON trace to `FILE`")
	stats := fl.Bool("stats", false, "print per-machine metric registries after the run")
	deviceKind := fl.String("device", "", "override the disk model for every kernel: hdd, ssd, or ftlssd (ignored by the experiments that pin their own disk: fig9, fig12, fig19, gcsweep, crashsweep)")
	sloSpec := fl.String("slo", "", "attach an SLO monitor (500ms windows) to every kernel; semicolon-separated rule `specs` like 'pid=100 op=fsync p99<10ms'")
	postmortem := fl.String("postmortem", "", "write flight-recorder post-mortem bundles (JSON) to `FILE` when the run fails or an invariant trips")
	progress := fl.Bool("progress", false, "print a sweep progress heartbeat (cells done/total, ETA) to stderr")
	cpuProfile := fl.String("cpuprofile", "", "write a pprof CPU profile of the whole run to `FILE`")
	memProfile := fl.String("memprofile", "", "write a pprof heap profile at exit to `FILE`")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: splitbench [flags] [experiment ...]\n")
		fmt.Fprintf(stderr, "       splitbench [flags] report [-format text|json] [-o FILE] [-schedulers LIST]\n\nflags:\n")
		fl.PrintDefaults()
		fmt.Fprintf(stderr, "\nexperiments:\n")
		for _, e := range exp.All {
			fmt.Fprintf(stderr, "  %-8s %s\n", e.ID, e.Title)
		}
	}
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, e := range exp.All {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	usageErr := func(err error) int {
		fmt.Fprintf(stderr, "splitbench: %v\n", err)
		return 2
	}
	if err := checkDevice(*deviceKind); err != nil {
		return usageErr(err)
	}
	seedList, err := parseSeeds(*seeds)
	if err != nil {
		return usageErr(err)
	}
	if seedList == nil {
		seedList = []int64{*seed}
	}

	opts := exp.Options{Scale: *scale, Seed: *seed, Runner: &sweep.Runner{Workers: *jobs}, Device: *deviceKind}
	if *progress {
		opts.Runner.Progress = opts.Runner.ProgressWriter(stderr)
	}
	if *sloSpec != "" {
		rules, err := parseRules(*sloSpec)
		if err != nil {
			return usageErr(err)
		}
		opts.Monitor = &exp.MonitorCollector{Rules: rules}
	}
	if *stats {
		opts.Metrics = &exp.StatsCollector{}
	}

	// work runs what the arguments name under opts and returns why the run
	// failed, one line per failure.
	var work func() ([]string, error)
	if rest := fl.Args(); len(rest) > 0 && rest[0] == "report" {
		if len(seedList) > 1 {
			return usageErr(errors.New("report runs one seed: use -seed, not a -seeds range"))
		}
		r, ok := parseReport(rest[1:], stdout, stderr)
		if !ok {
			return 2
		}
		if r.file != nil {
			defer r.file.Close()
		}
		work = func() ([]string, error) { return r.run(opts, stderr) }
	} else {
		exps, err := resolve(rest)
		if err != nil {
			return usageErr(err)
		}
		work = func() ([]string, error) { return runExperiments(exps, seedList, opts, stdout, stderr), nil }
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return usageErr(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return usageErr(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "splitbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not collectible garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "splitbench: %v\n", err)
			}
		}()
	}

	var traced *tracedRun
	if *traceFile != "" {
		opts.Tracer, traced, err = createTrace(*traceFile, opts.Monitor != nil)
		if err != nil {
			fmt.Fprintf(stderr, "splitbench: %v\n", err)
			return 1
		}
	}

	failures, err := work()
	if err != nil {
		fmt.Fprintf(stderr, "splitbench: %v\n", err)
		return 1
	}
	if traced != nil {
		if err := traced.finish(stderr, monitorCounters(opts.Monitor)); err != nil {
			fmt.Fprintf(stderr, "splitbench: %v\n", err)
			return 1
		}
	}
	if opts.Metrics != nil {
		for _, m := range opts.Metrics.Machines {
			fmt.Fprintf(stdout, "\nmachine %s:\n", m.Label)
			m.Registry.WriteText(stdout)
		}
	}
	if opts.Monitor != nil {
		printMonitors(stdout, opts.Monitor)
	}
	if *postmortem != "" {
		if err := writePostmortem(*postmortem, opts.Monitor, failures, stderr); err != nil {
			fmt.Fprintf(stderr, "splitbench: %v\n", err)
			return 1
		}
	}
	sweepSummary(stderr, opts.Runner)
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// runExperiments runs each experiment once per seed, printing its table to
// stdout, and returns a line per experiment that reported invariant
// violations.
func runExperiments(exps []exp.Experiment, seeds []int64, opts exp.Options, stdout, stderr io.Writer) []string {
	var failures []string
	for _, sd := range seeds {
		opts.Seed = sd
		if len(seeds) > 1 {
			fmt.Fprintf(stdout, "\n######## seed %d ########\n", sd)
		}
		for _, e := range exps {
			// Host-side wall time for the progress banner; cmd/ packages are
			// outside the simclock contract (see DESIGN.md, "Determinism
			// contract") and it never feeds back into the simulation.
			start := time.Now()
			tab := e.Run(opts)
			printTable(stdout, tab, time.Since(start))
			// Checking experiments (crashsweep) report invariant violations via
			// this metric; a nonzero count fails the run so `make crashsweep`
			// gates CI.
			if n := tab.Metrics["violations_total"]; n > 0 {
				fmt.Fprintf(stderr, "splitbench: %s reported %.0f invariant violations\n", tab.ID, n)
				failures = append(failures, fmt.Sprintf("seed %d: %s reported %.0f invariant violations", sd, tab.ID, n))
			}
		}
	}
	return failures
}

// sweepSummary reports cell totals and wall-time accounting on w, which is
// stderr: stdout stays byte-identical across -j settings.
func sweepSummary(w io.Writer, r *sweep.Runner) {
	cells, _, errs := r.Stats()
	if cells == 0 {
		return
	}
	workers := "auto"
	if r.Workers > 0 {
		workers = fmt.Sprint(r.Workers)
	}
	wallNS, maxNS := r.Wall()
	fmt.Fprintf(w, "sweep: %d cells (%d failed) across %s workers; cell wall %v total, %v slowest\n",
		cells, errs, workers, time.Duration(wallNS).Round(time.Millisecond), time.Duration(maxNS).Round(time.Millisecond))
}

// tracedRun is the output side of a -trace run: the file the Chrome
// trace_event JSON streams into and the attribution sink behind the blame
// table.
type tracedRun struct {
	path   string
	f      *os.File
	chrome *trace.ChromeWriter
	blame  *attr.Attribution
}

// createTrace opens path up front, so a bad path fails before the run, not
// after it, and returns an enabled tracer with two sinks: a ChromeWriter
// streaming the run's trace_event JSON into the file (monitored names the
// monitor process in its header) and an attribution sink. The tracer may
// span several machines, whose transaction IDs and clocks collide, so
// only the per-(pid, op) blame rows are printed, never inversions.
func createTrace(path string, monitored bool) (*trace.Tracer, *tracedRun, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	t := &tracedRun{path: path, f: f, chrome: trace.NewChromeWriter(f, monitored), blame: attr.New()}
	tr := trace.New()
	tr.Attach(t.chrome)
	tr.Attach(t.blame)
	tr.Enable()
	return tr, t, nil
}

// finish appends the monitor's counter tracks and the footer, closes the
// file, and writes the event count and the blame table to w.
func (t *tracedRun) finish(w io.Writer, counters []trace.CounterSample) error {
	err := t.chrome.Close(counters)
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntrace: %d events -> %s\n\n", t.chrome.Count(), t.path)
	attr.WriteGroups(w, t.blame.Summary("").Groups)
	return nil
}

func printTable(w io.Writer, t *exp.Table, wall time.Duration) {
	fmt.Fprintf(w, "\n%s\n%s (wall %v)\n", strings.Repeat("=", len(t.Title)), t.Title, wall.Round(time.Millisecond))
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
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
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
		fmt.Fprintf(w, "  %s (every %v):", s.Label, s.Step)
		for _, v := range s.Values {
			fmt.Fprintf(w, " %.0f", v)
		}
		fmt.Fprintln(w)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
}
