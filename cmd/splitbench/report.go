// The `splitbench report` subcommand: run the entangled antagonist
// workload under a set of schedulers and render the latency-attribution
// blame tables (text or JSON). A scheduler that isolates the idle writer
// showing any inversion, or with -slo any SLO breach, fails the run, which
// is how CI pins the paper's isolation claim.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"splitio/internal/exp"
)

// report is a parsed report command line.
type report struct {
	json       bool
	w          io.Writer // stdout, or file
	file       *os.File  // the -o file, nil for stdout
	schedulers []string
}

// parseReport parses the report subcommand's arguments and opens its -o
// file, so a bad path fails before the run. It reports usage errors on
// stderr and returns ok false.
func parseReport(args []string, stdout, stderr io.Writer) (r *report, ok bool) {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json")
	out := fs.String("o", "", "write the report to `FILE` instead of stdout")
	scheds := fs.String("schedulers", "noop,cfq,afq", "comma-separated schedulers to run")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: splitbench [flags] report [-format text|json] [-o FILE] [-schedulers LIST]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return nil, false
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "splitbench report: unknown format %q (want text or json)\n", *format)
		fs.Usage()
		return nil, false
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "splitbench report: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return nil, false
	}
	names, err := parseSchedulers(*scheds)
	if err != nil {
		fmt.Fprintf(stderr, "splitbench report: %v\n", err)
		return nil, false
	}
	r = &report{json: *format == "json", w: stdout, schedulers: names}
	if *out != "" {
		if r.file, err = os.Create(*out); err != nil {
			fmt.Fprintf(stderr, "splitbench report: %v\n", err)
			return nil, false
		}
		r.w = r.file
	}
	return r, true
}

// run runs the entangled workload under each scheduler with opts, writes
// the report, and returns a line, also printed on stderr, for each
// scheduler that isolates the idle writer yet shows inversions or, under
// opts.Monitor, breaches an SLO rule.
func (r *report) run(opts exp.Options, stderr io.Writer) ([]string, error) {
	rep := exp.BuildReport(opts, r.schedulers)
	if r.json {
		if err := rep.WriteJSON(r.w); err != nil {
			return nil, err
		}
	} else {
		rep.WriteText(r.w)
	}
	if r.file != nil {
		if err := r.file.Close(); err != nil {
			return nil, err
		}
	}

	var failures []string
	fail := func(format string, a ...any) {
		msg := fmt.Sprintf(format, a...)
		fmt.Fprintf(stderr, "splitbench %s\n", msg)
		failures = append(failures, msg)
	}
	for i, sr := range rep.Schedulers {
		if !exp.IsolatesIdleWriter(sr.Scheduler) {
			continue
		}
		var n int64
		for _, kc := range sr.InversionCounts {
			n += kc.Count
		}
		if n > 0 {
			fail("report: split scheduler %s shows %d inversions (expected none)", sr.Scheduler, n)
		}
		if opts.Monitor != nil {
			if b := len(opts.Monitor.Machines[i].Mon.Breaches()); b > 0 {
				fail("report: split scheduler %s breached its SLO %d times (expected none)", sr.Scheduler, b)
			}
		}
	}
	return failures, nil
}

// parseSchedulers parses a -schedulers list: comma-separated scheduler
// names, skipping empty entries. An unknown name is an error that lists
// the known schedulers.
func parseSchedulers(list string) ([]string, error) {
	var out []string
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if !exp.KnownScheduler(s) {
			return nil, fmt.Errorf("unknown scheduler %q (have %s)", s, strings.Join(exp.SchedulerNames(), ", "))
		}
		out = append(out, s)
	}
	return out, nil
}
