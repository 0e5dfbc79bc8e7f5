package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"splitio/internal/exp"
)

// tracedArtifacts runs experiment id at -scale 0.05, seed 1 the way
// `splitbench -trace FILE` does (with `-slo` at the default rules when
// monitored) and returns the Chrome JSON and what -trace prints on stderr,
// with the trace file's path replaced by FILE.
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
	tr, traced, err := createTrace(path, monitored)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracer = tr
	e.Run(opts)
	var stderr bytes.Buffer
	if err := traced.finish(&stderr, monitorCounters(opts.Monitor)); err != nil {
		t.Fatal(err)
	}
	if chrome, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return chrome, bytes.ReplaceAll(stderr.Bytes(), []byte(path), []byte("FILE"))
}

// TestTraceArtifactsPinned pins the -trace outputs byte for byte: the
// Chrome JSON (with monitor counter tracks in the monitored case) and the
// event count and blame table printed on stderr.
func TestTraceArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		id             string
		monitored      bool
		chrome, tables string
	}{
		{"fig1", false,
			"f2d016c39ff76aa46bde89b526e754b2353b443701a6cf7f71560117753b1562",
			"daffb5115e425f46c23e8dd77fc44417b2a91204de70d6379eefccc34bf8ceea"},
		{"fig14", true,
			"1d9f7eba7780a02df61dbc7f6a2b7af7d7fae5863a7a256617263fc14c95dd2a",
			"21a9abdf6ca815935cccc1c573643b8ae7795bf24bdbf9dbc1a9b4aed4267bac"},
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
