package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"splitio/internal/exp"
	"splitio/internal/trace"
)

// tracedArtifacts runs experiment id at -scale 0.05, seed 1 the way
// `splitbench -trace FILE` does (with `-slo` at the default rules when
// monitored) and returns the Chrome JSON and the stderr trace tables.
func tracedArtifacts(t *testing.T, id string, monitored bool) (chrome, tables []byte) {
	t.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	opts := exp.Options{Scale: 0.05, Seed: 1}
	if monitored {
		rules, err := parseRules(exp.SLORuleSpec)
		if err != nil {
			t.Fatal(err)
		}
		opts.Monitor = &exp.MonitorCollector{Window: exp.SLOWindow, Rules: rules}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, finish, err := createTrace(path, monitored)
	if err != nil {
		t.Fatal(err)
	}
	rollup := trace.NewRollup(20)
	tr.Attach(rollup)
	opts.Tracer = tr
	e.Run(opts)
	n, err := finish(monitorCounters(opts.Monitor))
	if err != nil {
		t.Fatal(err)
	}
	if chrome, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "trace: %d events\n", n)
	rollup.WriteRequests(&tb)
	rollup.WriteSummary(&tb)
	return chrome, tb.Bytes()
}

// TestTraceArtifactsPinned pins the -trace outputs byte for byte: the
// Chrome JSON (with monitor counter tracks in the monitored case) and the
// event count, per-request table and summary printed on stderr.
func TestTraceArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		id             string
		monitored      bool
		chrome, tables string
	}{
		{"fig1", false,
			"f2d016c39ff76aa46bde89b526e754b2353b443701a6cf7f71560117753b1562",
			"842120e9e3558efaca3ddc4cf5d95e8c970b26b8b22adf913716f4bc083b88c3"},
		{"fig14", true,
			"380799cdab8dbed83c4db22adf02ff99416ecf362c50e7f16ba1a849cd568c20",
			"7ebf89659f525b8856be5f5853256c74359bb50b092091f2a7986b264558993a"},
	} {
		chrome, tables := tracedArtifacts(t, tc.id, tc.monitored)
		if got := sha(chrome); got != tc.chrome {
			t.Errorf("%s: Chrome JSON digest %s, want %s", tc.id, got, tc.chrome)
		}
		if got := sha(tables); got != tc.tables {
			t.Errorf("%s: trace tables digest %s, want %s\n%s", tc.id, got, tc.tables, tables)
		}
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
