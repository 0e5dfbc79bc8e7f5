// The `splitbench monitor` subcommand and the -slo/-postmortem plumbing:
// run the entangled antagonist workload under a set of schedulers with a
// windowed SLO monitor attached, print per-machine breach tables and the
// last gauge sample, export counter tracks alongside the spans with -trace,
// and write flight-recorder bundles with -postmortem.

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"splitio/internal/exp"
	"splitio/internal/monitor"
	"splitio/internal/trace"
)

// parseRules parses a -slo value: semicolon-separated rule specs, each in
// monitor.ParseRule's compact form.
func parseRules(spec string) ([]monitor.Rule, error) {
	var out []monitor.Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := monitor.ParseRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-slo %q: no rules", spec)
	}
	return out, nil
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

// runMonitorCmd implements `splitbench monitor`. Exit code 1 when a split
// scheduler breaches its SLO (mirroring `splitbench report`; the block-level
// baseline breaching is the expected phenomenon, not a failure), 2 on usage
// errors.
func runMonitorCmd(opts exp.Options, window time.Duration, sloSpec, traceFile, postmortem string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scheds := fs.String("schedulers", "cfq,afq", "comma-separated schedulers to run the entangled workload under")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: splitbench [-scale F] [-seed N] [-slo SPECS] [-slo-window D] [-device KIND] [-trace FILE] [-postmortem FILE] monitor [-schedulers LIST]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "splitbench monitor: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	names, err := parseSchedulers(*scheds)
	if err != nil {
		fmt.Fprintf(stderr, "splitbench monitor: %v\n", err)
		return 2
	}
	if sloSpec == "" {
		sloSpec = exp.SLORuleSpec
	}
	rules, err := parseRules(sloSpec)
	if err != nil {
		fmt.Fprintf(stderr, "splitbench monitor: %v\n", err)
		return 2
	}
	opts.Monitor = &exp.MonitorCollector{Window: window, Rules: rules}

	var traced *tracedRun
	if traceFile != "" {
		opts.Tracer, traced, err = createTrace(traceFile, true)
		if err != nil {
			fmt.Fprintf(stderr, "splitbench monitor: %v\n", err)
			return 1
		}
	}

	code := 0
	for i, mon := range exp.MonitorEntangled(opts, names) {
		if s := names[i]; exp.IsSplitScheduler(s) && len(mon.Breaches()) > 0 {
			fmt.Fprintf(stderr, "splitbench monitor: split scheduler %s breached its SLO (expected none)\n", s)
			code = 1
		}
	}

	printMonitors(stdout, opts.Monitor)
	printLastSamples(stdout, opts.Monitor)

	if traced != nil {
		if err := traced.finish(stderr, monitorCounters(opts.Monitor)); err != nil {
			fmt.Fprintf(stderr, "splitbench monitor: %v\n", err)
			return 1
		}
	}
	if postmortem != "" {
		if err := writePostmortem(postmortem, opts.Monitor, nil); err != nil {
			fmt.Fprintf(stderr, "splitbench monitor: %v\n", err)
			return 1
		}
	}
	return code
}

// monitorCounters flattens every machine's counter-sample log for the
// Chrome export, prefixing each track with the machine label so machines
// sharing one trace do not collide.
func monitorCounters(mc *exp.MonitorCollector) []trace.CounterSample {
	if mc == nil {
		return nil
	}
	var out []trace.CounterSample
	for _, m := range mc.Machines {
		for _, c := range m.Mon.Counters() {
			c.Track = m.Label + "/" + c.Track
			out = append(out, c)
		}
	}
	return out
}

// printMonitors renders each machine's SLO verdict: window/breach/bundle
// counts, the first breaches, and what tripped the flight recorder.
func printMonitors(w io.Writer, mc *exp.MonitorCollector) {
	for _, m := range mc.Machines {
		mon := m.Mon
		fmt.Fprintf(w, "\nmonitor %s: %d windows, %d breaches, %d bundles\n",
			m.Label, mon.Ticks(), len(mon.Breaches()), len(mon.Dumps()))
		printBreaches(w, mon.Breaches(), 5)
		for _, d := range mon.Dumps() {
			fmt.Fprintf(w, "  bundle %s at %s: %s\n", d.Kind, fmtNS(int64(d.At)), d.Detail)
		}
	}
}

func printBreaches(w io.Writer, bs []monitor.Breach, max int) {
	for i, b := range bs {
		if max > 0 && i >= max {
			fmt.Fprintf(w, "  ... %d more breaches\n", len(bs)-i)
			return
		}
		fmt.Fprintf(w, "  breach at %s: rule %q %s %s over limit %s (window n=%d p99=%s)\n",
			fmtNS(int64(b.At)), b.Rule, b.Kind,
			fmtBreachVal(b.Kind, b.Value), fmtBreachVal(b.Kind, b.Limit),
			b.Window.Count, fmtNS(int64(b.Window.P99)))
	}
}

// fmtBreachVal formats a breach value/limit in the unit of its kind:
// latency values are nanoseconds, throughput values bytes/second, and
// burn-rate values bad-request fractions.
func fmtBreachVal(kind string, v float64) string {
	switch kind {
	case "latency":
		return fmtNS(int64(v))
	case "throughput":
		return fmt.Sprintf("%.1fMB/s", v/1e6)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func fmtNS(ns int64) string {
	return fmt.Sprintf("%.1fms", float64(ns)/1e6)
}

// printLastSamples renders the last gauge sample of each machine — the
// text view of the Chrome counter tracks.
func printLastSamples(w io.Writer, mc *exp.MonitorCollector) {
	for _, m := range mc.Machines {
		samples := m.Mon.Samples()
		if len(samples) == 0 {
			continue
		}
		last := samples[len(samples)-1]
		fmt.Fprintf(w, "\nmachine %s, last sample at %s:\n", m.Label, fmtNS(int64(last.At)))
		for _, g := range last.Gauges {
			fmt.Fprintf(w, "  %-36s %s\n", g.Name, strconv.FormatFloat(g.Value, 'g', -1, 64))
		}
	}
}

// postmortemDoc is the on-disk shape of a -postmortem file: why the run
// failed plus every machine's flight-recorder bundles.
type postmortemDoc struct {
	Failures []string            `json:"failures,omitempty"`
	Machines []machinePostmortem `json:"machines,omitempty"`
}

type machinePostmortem struct {
	Label    string           `json:"label"`
	Breaches []monitor.Breach `json:"breaches,omitempty"`
	Bundles  []monitor.Bundle `json:"bundles"`
}

// writePostmortem writes the post-mortem document when there is anything to
// report (a failed experiment or a tripped flight recorder). A clean run
// leaves no file, so CI can upload postmortem-*.json unconditionally and
// the artifact's existence itself signals a failure.
func writePostmortem(path string, mc *exp.MonitorCollector, failures []string) error {
	doc := postmortemDoc{Failures: failures}
	if mc != nil {
		for _, m := range mc.Machines {
			if len(m.Mon.Dumps()) == 0 {
				continue
			}
			doc.Machines = append(doc.Machines, machinePostmortem{
				Label: m.Label, Breaches: m.Mon.Breaches(), Bundles: m.Mon.Dumps(),
			})
		}
	}
	if len(doc.Failures) == 0 && len(doc.Machines) == 0 {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "postmortem: %d failure(s), %d machine bundle set(s) -> %s\n",
		len(doc.Failures), len(doc.Machines), path)
	return f.Close()
}
