package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"splitio/internal/exp"
)

// runMonitor runs `splitbench -scale 0.05 -seed 1 [-slo SLO] monitor ARGS`
// and returns its stdout, stderr and exit code.
func runMonitor(slo string, args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = runMonitorCmd(exp.Options{Scale: 0.05, Seed: 1}, 500*time.Millisecond, slo, "", "", args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestMonitorCmd: usage errors exit 2; the default cfq,afq pair exits 0
// with CFQ breaching, AFQ clean, and a last-sample block of scheduler
// gauges for each machine; a breaching split scheduler exits 1.
func TestMonitorCmd(t *testing.T) {
	for _, tc := range []struct {
		name, slo string
		args      []string
	}{
		{"unknown scheduler", "", []string{"-schedulers", "cfq,bogus"}},
		{"extra arguments", "", []string{"fig1"}},
		{"malformed -slo", "pid=12abc p99<1ms", nil},
	} {
		if out, errs, code := runMonitor(tc.slo, tc.args...); code != 2 || out != "" {
			t.Errorf("%s: exit %d with %d bytes of stdout, want 2 and none; stderr:\n%s", tc.name, code, len(out), errs)
		}
	}

	out, errs, code := runMonitor("")
	if code != 0 {
		t.Fatalf("default run exited %d, want 0; stderr:\n%s", code, errs)
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
	for _, label := range []string{"cfq#0", "afq#1"} {
		_, block, ok := strings.Cut(out, "\nmachine "+label+", last sample at ")
		block, _, _ = strings.Cut(block, "\n\n")
		if !ok || !strings.Contains(block, "\n  sched.") {
			t.Errorf("no last-sample block with sched. gauges for %s in:\n%s", label, out)
		}
	}

	if _, errs, code := runMonitor("pid=100 op=fsync p99<1ms", "-schedulers", "afq"); code != 1 || !strings.Contains(errs, "split scheduler afq breached") {
		t.Errorf("breaching afq exited %d, want 1; stderr:\n%s", code, errs)
	}
}
