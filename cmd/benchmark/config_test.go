package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"splitio/internal/exp"
)

// benchmarkFile is BENCHMARK.json; unknown keys are refused.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// recordFile is the part of record.json this test checks: what each layer
// metric should move, the notes, reference digests and the baseline.
type recordFile struct {
	Moves map[string][]struct {
		Metric    string   `json:"metric"`
		Workloads []string `json:"workloads"`
	} `json:"moves"`
	Notes            map[string]string            `json:"notes"`
	ReferenceDigests map[string]map[string]string `json:"reference_digests"`
	Baseline         struct {
		EndToEnd map[string]map[string]struct {
			Median, Min, Max float64
		} `json:"end_to_end"`
		Traced map[string]map[string]float64 `json:"traced"`
	} `json:"baseline"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var rec recordFile
	if err := json.Unmarshal(recordJSON, &rec); err != nil {
		t.Fatalf("record.json: %v", err)
	}

	if len(b.Paths) < 1 || len(b.Paths) > 16 || len(b.Command) < 1 || len(b.Command) > 32 {
		t.Errorf("paths %v or command %v out of range", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d not in 1..60", b.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s name %q is malformed or used twice", kind, name)
		}
		seen[name] = true
	}

	// Workloads: the same names, in the same order, as the code runs; every
	// experiment resolves and belongs to one workload at most.
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d (want 2..8, equal)", len(b.Workloads), len(workloads))
	}
	owner := map[string]string{}
	for i, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		for _, id := range workloads[i].ids {
			if _, ok := exp.ByID(id); !ok {
				t.Errorf("workload %s: experiment %q does not resolve", w.Name, id)
			}
			if o, dup := owner[id]; dup {
				t.Errorf("experiment %s is in workloads %s and %s", id, o, w.Name)
			}
			owner[id] = w.Name
		}
	}

	// End-to-end metrics: exactly what the untraced run prints, each with
	// a unit, a direction and a bound; setup_s carries the largest bound.
	fakeRun := childRun{rep: &repResult{Trace: &traceStats{}}}
	emitted := endToEndMetrics([]childRun{fakeRun}, []float64{1})
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(emitted) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the run prints %d (want 1..16, equal)", len(b.EndToEnd), len(emitted))
	}
	bounds := map[string]float64{}
	for i, m := range b.EndToEnd {
		checkName("metric", m.Name)
		if m.Name != emitted[i].name || m.Unit != emitted[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d is %s [%s], the run prints %s [%s]", i, m.Name, m.Unit, emitted[i].name, emitted[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g not in (0, 0.25]", m.Name, m.Bound)
		}
		bounds[m.Name] = m.Bound
	}
	for name, bound := range bounds {
		if bound > bounds["setup_s"] {
			t.Errorf("%s has a larger bound (%g) than setup_s (%g)", name, bound, bounds["setup_s"])
		}
	}

	// Per-layer metrics: exactly what the traced run prints, and each one
	// names the end-to-end metric and workloads it should move, or a note
	// saying why it moves none.
	emitted = perLayerMetrics(fakeRun, fakeRun)
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(emitted) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the traced run prints %d (want 1..128, equal)", len(b.PerLayer), len(emitted))
	}
	for i, m := range b.PerLayer {
		checkName("metric", m.Name)
		if m.Name != emitted[i].name || m.Unit != emitted[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %s [%s], the run prints %s [%s]", i, m.Name, m.Unit, emitted[i].name, emitted[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		key := m.Name
		moves, ok := rec.Moves[key]
		if !ok {
			key, _, _ = strings.Cut(m.Name, ".")
			moves, ok = rec.Moves[key]
		}
		switch {
		case !ok:
			t.Errorf("%s: record.json moves has neither %q nor %q", m.Name, m.Name, key)
		case len(moves) == 0 && rec.Notes[key] == "":
			t.Errorf("%s: moves nothing, and record.json notes has no %q entry saying why", m.Name, key)
		}
		for _, mv := range moves {
			if _, ok := bounds[mv.Metric]; !ok || len(mv.Workloads) == 0 {
				t.Errorf("%s: moves names end-to-end metric %q on workloads %v", m.Name, mv.Metric, mv.Workloads)
			}
			for _, w := range mv.Workloads {
				if !slices.Contains(workloadNames(), w) {
					t.Errorf("%s: moves names unknown workload %q", m.Name, w)
				}
			}
		}
	}

	// The recorded baseline and reference digests cover every workload.
	for _, w := range workloads {
		if len(rec.Baseline.EndToEnd[w.name]) != len(bounds) || len(rec.Baseline.Traced[w.name]) != len(b.PerLayer) {
			t.Errorf("record.json baseline lacks metrics for workload %s", w.name)
		}
		for _, seed := range []string{"1", "2"} {
			for _, id := range w.ids {
				if rec.ReferenceDigests[seed][id] == "" {
					t.Errorf("record.json has no seed-%s reference digest for %s", seed, id)
				}
			}
		}
	}
}
