// The `splitbench report` subcommand: run the entangled antagonist
// workload under a set of schedulers, render the latency-attribution blame
// tables (text or JSON), and optionally diff two archived reports. A split
// scheduler showing any inversion fails the run, which is how CI pins the
// paper's isolation claim.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"splitio/internal/attr"
	"splitio/internal/exp"
)

// reportSchemaHint is printed when -diff is handed a file that is not a
// report archive, so the user learns what shape is expected and where such
// files come from.
const reportSchemaHint = `splitbench report: a report archive is the JSON written by 'splitbench report -format json [-o FILE]':
  {
    "seed": 1,
    "scale": 1,
    "workload": "...",
    "schedulers": [
      {"scheduler": "cfq", "requests": N,
       "groups": [{"pid": P, "op": "fsync", "count": N, "p50_ns": ..., ...}],
       "inversion_counts": [{"kind": "txn-commit", "count": N, "total_ns": ...}]}
    ]
  }
Identity fields are what -diff matches on and are validated field-by-field:
every scheduler section needs a unique "scheduler" name, every blame group
its per-ioctx identity ("pid" >= 0 and a non-empty "op") plus a positive
"count", and every inversion tally a "kind". The error above names the
first offending field and the section it sits in.
`

// runReport implements `splitbench report`. It returns the process exit
// code: 0 on success, 1 when a split scheduler shows inversions, 2 on
// usage errors.
func runReport(opts exp.Options, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json")
	out := fs.String("o", "", "write the report to `FILE` instead of stdout")
	diff := fs.Bool("diff", false, "diff two report JSON files (old new) instead of running")
	scheds := fs.String("schedulers", "noop,cfq,afq", "comma-separated schedulers to run")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: splitbench [-scale F] [-seed N] report [-format text|json] [-o FILE] [-schedulers LIST]\n")
		fmt.Fprintf(stderr, "       splitbench report -diff OLD.json NEW.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "splitbench report: unknown format %q (want text or json)\n", *format)
		fs.Usage()
		return 2
	}
	if *diff {
		if fs.NArg() != 2 {
			fmt.Fprintf(stderr, "splitbench report: -diff needs exactly two report files, got %d\n", fs.NArg())
			return 2
		}
		old, err := readReportFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "splitbench report: %s: %v\n", fs.Arg(0), err)
			fmt.Fprint(stderr, reportSchemaHint)
			return 2
		}
		cur, err := readReportFile(fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "splitbench report: %s: %v\n", fs.Arg(1), err)
			fmt.Fprint(stderr, reportSchemaHint)
			return 2
		}
		attr.WriteDiff(stdout, old, cur)
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "splitbench report: unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	names, err := parseSchedulers(*scheds)
	if err != nil {
		fmt.Fprintf(stderr, "splitbench report: %v\n", err)
		return 2
	}
	rep := exp.BuildReport(opts, names)

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "splitbench report: %v\n", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if *format == "json" {
		if err := rep.WriteJSON(w); err != nil {
			fmt.Fprintf(stderr, "splitbench report: %v\n", err)
			return 1
		}
	} else {
		rep.WriteText(w)
	}

	code := 0
	for i := range rep.Schedulers {
		sr := &rep.Schedulers[i]
		if !exp.IsSplitScheduler(sr.Scheduler) {
			continue
		}
		var n int64
		for _, kc := range sr.InversionCounts {
			n += kc.Count
		}
		if n > 0 {
			fmt.Fprintf(stderr, "splitbench report: split scheduler %s shows %d inversions (expected none)\n",
				sr.Scheduler, n)
			code = 1
		}
	}
	return code
}

func readReportFile(path string) (*attr.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return attr.ReadReport(f)
}
