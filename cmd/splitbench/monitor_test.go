package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"splitio/internal/exp"
)

// TestMonitorCmd: `-slo SPECS report` is the SLO gate on the entangled
// workload. Usage errors exit 2; the cfq,afq pair exits 0 with CFQ
// breaching and AFQ clean; a breaching split scheduler exits 1.
func TestMonitorCmd(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown scheduler", []string{"-slo", exp.SLORuleSpec, "report", "-schedulers", "cfq,bogus"}},
		{"extra arguments", []string{"-slo", exp.SLORuleSpec, "report", "fig1"}},
		{"malformed -slo", []string{"-slo", "pid=12abc p99<1ms", "report"}},
		{"seed range", []string{"-seeds", "1..2", "-slo", exp.SLORuleSpec, "report"}},
	} {
		if out, errs, code := splitbench(append([]string{"-scale", "0.05"}, tc.args...)...); code != 2 || out != "" {
			t.Errorf("%s: exit %d with %d bytes of stdout, want 2 and none; stderr:\n%s", tc.name, code, len(out), errs)
		}
	}

	out, errs, code := splitbench("-scale", "0.05", "-seed", "1", "-slo", exp.SLORuleSpec, "report", "-schedulers", "cfq,afq")
	if code != 0 {
		t.Fatalf("cfq,afq run exited %d, want 0; stderr:\n%s", code, errs)
	}
	breaches := func(label string) string {
		m := regexp.MustCompile(`(?m)^monitor ` + regexp.QuoteMeta(label) + `: \d+ windows, (\d+) breaches`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no verdict line for %s in:\n%s", label, out)
		}
		return m[1]
	}
	if n := breaches("cfq#0"); n == "0" {
		t.Error("cfq#0 did not breach its SLO")
	}
	if n := breaches("afq#1"); n != "0" {
		t.Errorf("afq#1 breached %s times, want 0", n)
	}

	if _, errs, code := splitbench("-scale", "0.05", "-seed", "1", "-slo", "pid=100 op=fsync p99<1ms", "report", "-schedulers", "afq"); code != 1 || !strings.Contains(errs, "split scheduler afq breached") {
		t.Errorf("breaching afq exited %d, want 1; stderr:\n%s", code, errs)
	}
}

// TestReportHonoursGlobalFlags: report takes -trace, -stats, -slo and
// -postmortem as the experiments do: one run writes the trace with its
// monitor counter tracks, the blame rows, each machine's registry, the SLO
// verdicts and the post-mortem bundles.
func TestReportHonoursGlobalFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath, pm := filepath.Join(dir, "t.json"), filepath.Join(dir, "pm.json")
	out, errs, code := splitbench("-scale", "0.05", "-seed", "1", "-trace", tracePath, "-stats",
		"-slo", exp.SLORuleSpec, "-postmortem", pm, "report", "-schedulers", "cfq,afq")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errs)
	}
	for _, want := range []string{"=== cfq ", "\nmachine cfq#0:\n", "\nsched.queued_be ", "\nmonitor cfq#0: ", "\nmonitor afq#1: "} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"\ntrace: ", "  pid  op", "postmortem: "} {
		if !strings.Contains(errs, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errs)
		}
	}
	chrome, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []struct{ Ph string } }
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	counters := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Error("trace has no monitor counter samples")
	}
	if _, err := os.Stat(pm); err != nil {
		t.Errorf("cfq's breach wrote no post-mortem bundle: %v", err)
	}
}
