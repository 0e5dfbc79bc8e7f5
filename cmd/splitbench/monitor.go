// The -slo/-postmortem plumbing: parse SLO rules, print
// each monitored machine's verdict, export its counter tracks alongside the
// spans with -trace, and write flight-recorder bundles with -postmortem.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

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
// the artifact's existence itself signals a failure. A line saying what was
// written goes to w.
func writePostmortem(path string, mc *exp.MonitorCollector, failures []string, w io.Writer) error {
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
	fmt.Fprintf(w, "postmortem: %d failure(s), %d machine bundle set(s) -> %s\n",
		len(doc.Failures), len(doc.Machines), path)
	return f.Close()
}
