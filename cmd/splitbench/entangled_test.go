package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitio/internal/exp"
	"splitio/internal/schedtest"
)

// TestEntangledOutputsPinned pins, byte for byte, what splitbench prints
// and writes for the entangled workload: the JSON report, the SLO verdict
// block and the post-mortem bundle (testdata/entangled_digests.txt).
func TestEntangledOutputsPinned(t *testing.T) {
	goldens := schedtest.LoadGoldens(t, "testdata/entangled_digests.txt")
	out, errs, code := splitbench("-scale", "0.1", "-seed", "1", "report", "-format", "json")
	if code != 0 {
		t.Fatalf("report exited %d: %s", code, errs)
	}
	goldens.Check(t, "report-json", "sha256="+sha([]byte(out)))

	pm := filepath.Join(t.TempDir(), "pm.json")
	out, errs, code = splitbench("-scale", "0.1", "-seed", "1", "-slo", exp.SLORuleSpec, "-postmortem", pm,
		"report", "-schedulers", "cfq,afq,split-token")
	if code != 0 {
		t.Fatalf("slo run exited %d: %s", code, errs)
	}
	// The verdict block ends stdout: one "monitor LABEL: ..." line per
	// machine with its breaches and bundles.
	i := strings.Index(out, "\nmonitor ")
	if i < 0 || !strings.Contains(out[i:], "\nmonitor split-token#2: ") {
		t.Fatalf("no verdict block for cfq#0..split-token#2 in:\n%s", out)
	}
	verdicts := out[i:]
	goldens.Check(t, "slo-verdicts", "sha256="+sha([]byte(verdicts)))
	bundle, err := os.ReadFile(pm)
	if err != nil {
		t.Fatal(err)
	}
	goldens.Check(t, "slo-postmortem", "sha256="+sha(bundle))
}
