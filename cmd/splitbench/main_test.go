package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"splitio/internal/exp"
)

func TestResolveDefaultsToAll(t *testing.T) {
	exps, err := resolve(nil)
	if err != nil {
		t.Fatalf("resolve(nil): %v", err)
	}
	if len(exps) != len(exp.All) {
		t.Fatalf("resolve(nil) = %d experiments, want %d", len(exps), len(exp.All))
	}
}

func TestResolveKnownIDs(t *testing.T) {
	exps, err := resolve([]string{"fig12", "table1"})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if len(exps) != 2 || exps[0].ID != "fig12" || exps[1].ID != "table1" {
		t.Fatalf("resolve = %+v, want [fig12 table1]", exps)
	}
}

func TestResolveUnknownIDNamesOffender(t *testing.T) {
	_, err := resolve([]string{"fig12", "fig99"})
	if err == nil {
		t.Fatal("resolve accepted unknown experiment fig99")
	}
	if !strings.Contains(err.Error(), `"fig99"`) {
		t.Fatalf("error %q does not name the offending experiment", err)
	}
}

// splitbench runs the command line args and returns its stdout, stderr and
// exit code.
func splitbench(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestReportUnknownFormatIsUsageError(t *testing.T) {
	out, errs, code := splitbench("-scale", "0.2", "-seed", "1", "report", "-format", "yaml")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(errs, `"yaml"`) {
		t.Fatalf("stderr does not name the bad format:\n%s", errs)
	}
	if out != "" {
		t.Fatalf("usage error still produced report output:\n%s", out)
	}
}

// TestReportUnknownSchedulerIsUsageError: report validates -schedulers.
// Empty entries are skipped, and an unknown name exits 2
// naming the known schedulers instead of crashing a sweep cell on a nil
// scheduler factory.
func TestReportUnknownSchedulerIsUsageError(t *testing.T) {
	for _, list := range []string{"cfq,bogus", "bogus"} {
		out, errs, code := splitbench("-scale", "0.05", "report", "-schedulers", list)
		if code != 2 {
			t.Errorf("-schedulers %s: exit code = %d, want 2 (usage error)", list, code)
		}
		for _, want := range []string{`"bogus"`, "split-token", "cfq"} {
			if !strings.Contains(errs, want) {
				t.Errorf("-schedulers %s: stderr does not name %s:\n%s", list, want, errs)
			}
		}
		if out != "" {
			t.Errorf("-schedulers %s: usage error still produced report output:\n%s", list, out)
		}
	}
	out, errs, code := splitbench("-scale", "0.05", "report", "-format", "json", "-schedulers", "cfq,,afq")
	if code != 0 {
		t.Fatalf("-schedulers cfq,,afq: exit code = %d, want 0: %s", code, errs)
	}
	var rep struct {
		Schedulers []struct{ Scheduler string }
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Schedulers) != 2 || rep.Schedulers[0].Scheduler != "cfq" || rep.Schedulers[1].Scheduler != "afq" {
		t.Errorf("-schedulers cfq,,afq ran %+v, want [cfq afq]", rep.Schedulers)
	}
}

// TestCheckDevice: -device accepts the three disk models and the empty
// default, and rejects anything else naming the known models, instead of
// silently running the HDD model under a mislabeled cell key.
func TestCheckDevice(t *testing.T) {
	for _, ok := range []string{"", "hdd", "ssd", "ftlssd"} {
		if err := checkDevice(ok); err != nil {
			t.Errorf("checkDevice(%q) = %v, want nil", ok, err)
		}
	}
	err := checkDevice("bogus")
	if err == nil {
		t.Fatal(`checkDevice("bogus") accepted an unknown disk model`)
	}
	for _, want := range []string{`"bogus"`, "hdd, ssd, ftlssd"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestReportGoldenDeterministic: same seed, same scale, byte-identical
// JSON report — the acceptance bar for everything attribution emits.
func TestReportGoldenDeterministic(t *testing.T) {
	report := func() (string, int) {
		out, errs, code := splitbench("-scale", "0.2", "-seed", "1", "report", "-format", "json", "-schedulers", "cfq,afq")
		if code == 2 {
			t.Fatalf("usage error: %s", errs)
		}
		return out, code
	}
	first, code1 := report()
	second, code2 := report()
	if code1 != 0 || code2 != 0 {
		t.Fatalf("report exited %d/%d, want 0 (split scheduler showed inversions?)", code1, code2)
	}
	if first != second {
		t.Fatalf("same-seed reports differ (%d vs %d bytes)", len(first), len(second))
	}
	var rep map[string]any
	if err := json.Unmarshal([]byte(first), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

// TestSeedsParsing pins the -seeds grammar: single seed, inclusive range,
// rejection of reversed and oversized ranges.
func TestSeedsParsing(t *testing.T) {
	got, err := parseSeeds("3..6")
	if err != nil || len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("parseSeeds(3..6) = %v, %v", got, err)
	}
	got, err = parseSeeds("7")
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("parseSeeds(7) = %v, %v", got, err)
	}
	if got, err = parseSeeds(""); err != nil || got != nil {
		t.Fatalf("parseSeeds(\"\") = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"9..2", "a..b", "1..", "1..999999999", "1..x"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

// TestReportParallelMatchesSerial: the report subcommand's JSON must be
// byte-identical whether scheduler cells run serially or fanned across
// eight workers.
func TestReportParallelMatchesSerial(t *testing.T) {
	report := func(workers string) string {
		out, errs, code := splitbench("-scale", "0.2", "-seed", "1", "-j", workers, "report", "-format", "json", "-schedulers", "cfq,afq")
		if code != 0 {
			t.Fatalf("report (-j %s) exited %d: %s", workers, code, errs)
		}
		return out
	}
	serial := report("1")
	parallel := report("8")
	if serial != parallel {
		t.Fatalf("-j 1 and -j 8 reports differ (%d vs %d bytes)", len(serial), len(parallel))
	}
}
