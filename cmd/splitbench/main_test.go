package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"splitio/internal/exp"
	"splitio/internal/sweep"
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

func TestReportUnknownFormatIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	code := runReport(exp.Options{Scale: 0.2, Seed: 1}, []string{"-format", "yaml"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(errb.String(), `"yaml"`) {
		t.Fatalf("stderr does not name the bad format:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("usage error still produced report output:\n%s", out.String())
	}
}

// TestReportUnknownSchedulerIsUsageError: report validates -schedulers as
// monitor does. Empty entries are skipped, and an unknown name exits 2
// naming the known schedulers instead of crashing a sweep cell on a nil
// scheduler factory.
func TestReportUnknownSchedulerIsUsageError(t *testing.T) {
	for _, list := range []string{"cfq,bogus", "bogus"} {
		var out, errb bytes.Buffer
		code := runReport(exp.Options{Scale: 0.05, Seed: 1}, []string{"-schedulers", list}, &out, &errb)
		if code != 2 {
			t.Errorf("-schedulers %s: exit code = %d, want 2 (usage error)", list, code)
		}
		for _, want := range []string{`"bogus"`, "split-token", "cfq"} {
			if !strings.Contains(errb.String(), want) {
				t.Errorf("-schedulers %s: stderr does not name %s:\n%s", list, want, errb.String())
			}
		}
		if out.Len() != 0 {
			t.Errorf("-schedulers %s: usage error still produced report output:\n%s", list, out.String())
		}
	}
	var out, errb bytes.Buffer
	if code := runReport(exp.Options{Scale: 0.05, Seed: 1}, []string{"-format", "json", "-schedulers", "cfq,,afq"}, &out, &errb); code != 0 {
		t.Fatalf("-schedulers cfq,,afq: exit code = %d, want 0: %s", code, errb.String())
	}
	var rep struct {
		Schedulers []struct{ Scheduler string }
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
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
	run := func() ([]byte, int) {
		var out, errb bytes.Buffer
		code := runReport(exp.Options{Scale: 0.2, Seed: 1}, []string{"-format", "json", "-schedulers", "cfq,afq"}, &out, &errb)
		if code == 2 {
			t.Fatalf("usage error: %s", errb.String())
		}
		return out.Bytes(), code
	}
	first, code1 := run()
	second, code2 := run()
	if code1 != 0 || code2 != 0 {
		t.Fatalf("report exited %d/%d, want 0 (split scheduler showed inversions?)", code1, code2)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same-seed reports differ (%d vs %d bytes)", len(first), len(second))
	}
	var rep map[string]any
	if err := json.Unmarshal(first, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

func TestReportDiffSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	var errb bytes.Buffer
	if code := runReport(exp.Options{Scale: 0.2, Seed: 1}, []string{"-format", "json", "-o", path, "-schedulers", "cfq"}, io.Discard, &errb); code != 0 {
		t.Fatalf("report run exited %d: %s", code, errb.String())
	}
	var out bytes.Buffer
	if code := runReport(exp.Options{Scale: 0.2, Seed: 1}, []string{"-diff", path, path}, &out, &errb); code != 0 {
		t.Fatalf("diff exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cfq") {
		t.Fatalf("diff output missing scheduler section:\n%s", out.String())
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

// TestReportDiffMalformedArchive: handing -diff a file that is not a report
// archive must exit 2 (usage error) and print the expected schema, for both
// a malformed and an empty file.
func TestReportDiffMalformedArchive(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(malformed, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// {} parses as JSON but is not a report archive.
	hollow := filepath.Join(dir, "hollow.json")
	if err := os.WriteFile(hollow, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{malformed, empty, hollow} {
		var out, errb bytes.Buffer
		code := runReport(exp.Options{Scale: 0.2, Seed: 1}, []string{"-diff", path, path}, &out, &errb)
		if code != 2 {
			t.Errorf("%s: -diff exited %d, want 2\nstderr: %s", path, code, errb.String())
		}
		if !strings.Contains(errb.String(), "schedulers") || !strings.Contains(errb.String(), "-format json") {
			t.Errorf("%s: stderr lacks the expected-schema hint:\n%s", path, errb.String())
		}
		if !strings.Contains(errb.String(), filepath.Base(path)) {
			t.Errorf("%s: stderr does not name the offending file:\n%s", path, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: diff error still wrote output:\n%s", path, out.String())
		}
	}
}

// TestReportParallelMatchesSerial: the report subcommand's JSON must be
// byte-identical whether scheduler cells run serially or fanned across
// eight workers.
func TestReportParallelMatchesSerial(t *testing.T) {
	run := func(workers int) []byte {
		var out, errb bytes.Buffer
		opts := exp.Options{Scale: 0.2, Seed: 1, Runner: &sweep.Runner{Workers: workers}}
		if code := runReport(opts, []string{"-format", "json", "-schedulers", "cfq,afq"}, &out, &errb); code != 0 {
			t.Fatalf("report (-j %d) exited %d: %s", workers, code, errb.String())
		}
		return out.Bytes()
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-j 1 and -j 8 reports differ (%d vs %d bytes)", len(serial), len(parallel))
	}
}
