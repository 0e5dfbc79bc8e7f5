// Race-focused tests of the sweep runner: serial and parallel runs must
// produce byte-identical merged output, and a panicking cell must surface
// as that cell's error (not a deadlock). The exp-backed tests at the bottom
// pin the end-to-end acceptance claim: the output of crashsweep, report and
// every other experiment that dispatches cells is byte-identical at -j 1
// and -j 8.
//
// The package is sweep_test (external) so it can import exp without a
// cycle; run with `go test -race` to make the pool's synchronization — and
// each cell writing only its own result slot — part of what is tested.

package sweep_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"splitio/internal/exp"
	"splitio/internal/sim"
	"splitio/internal/sweep"
)

// synthCells builds one deterministic cell per slot of out; cell i writes
// a payload encoding its index into out[i], so any slot mistake in the
// merge is visible in the bytes.
func synthCells(out []string) []sweep.Cell {
	cells := make([]sweep.Cell, len(out))
	for i := range cells {
		cells[i] = sweep.Cell{
			Key: sweep.Key{Experiment: "synth", Config: fmt.Sprintf("cell=%d", i), Seed: int64(i)},
			Run: func() { out[i] = fmt.Sprintf(`{"cell":%d,"sq":%d}`, i, i*i) },
		}
	}
	return cells
}

// runSynth runs n synthetic cells on a runner with the given worker count
// and returns their slots flattened into one byte stream in cell order.
func runSynth(t *testing.T, n, workers int) []byte {
	t.Helper()
	out := make([]string, n)
	cells := synthCells(out)
	if err := sweep.FirstErr((&sweep.Runner{Workers: workers}).Run(cells)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, c := range cells {
		fmt.Fprintf(&buf, "%s=%s\n", c.Key, out[i])
		var payload struct{ Cell, Sq int }
		if err := json.Unmarshal([]byte(out[i]), &payload); err != nil || payload.Cell != i || payload.Sq != i*i {
			t.Fatalf("workers=%d cell %d: payload %q out of order or corrupt", workers, i, out[i])
		}
	}
	return buf.Bytes()
}

func TestSerialParallelEquivalence(t *testing.T) {
	serial := runSynth(t, 64, 1)
	for _, workers := range []int{2, 8, 0} {
		if !bytes.Equal(serial, runSynth(t, 64, workers)) {
			t.Errorf("workers=%d: merged output differs from serial", workers)
		}
	}
}

func TestPanickingCellSurfacesAsError(t *testing.T) {
	out := make([]string, 16)
	cells := synthCells(out)
	cells[5].Run = func() { panic("cell exploded") }
	// A panic inside a simulated process fails only its own cell, too.
	cells[12].Run = func() {
		env := sim.NewEnv(1)
		defer env.Close()
		env.Go("bystander", func(p *sim.Proc) { p.Sleep(time.Hour) })
		env.Go("exploder", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			panic("process exploded")
		})
		env.RunAll()
		out[12] = "unreachable"
	}
	// Workers > 1 so a wedged pool would deadlock the test (and -race would
	// flag any unsynchronized slot writes).
	errs := (&sweep.Runner{Workers: 4}).Run(cells)
	if len(errs) != 16 {
		t.Fatalf("got %d errors, want 16", len(errs))
	}
	for i, err := range errs {
		switch i {
		case 5:
			if err == nil || !strings.Contains(err.Error(), "panicked: cell exploded") {
				t.Errorf("cell 5: err = %v, want recovered panic", err)
			}
			if !strings.Contains(err.Error(), "cell=5") {
				t.Errorf("cell 5: err does not name the cell: %v", err)
			}
		case 12:
			if err == nil || !strings.Contains(err.Error(), `cell=12`) ||
				!strings.Contains(err.Error(), `process "exploder" panicked at 1ms: process exploded`) {
				t.Errorf("cell 12: err = %v, want the cell and the process named", err)
			}
			if out[12] != "" {
				t.Errorf("cell 12: result %q from a failed cell", out[12])
			}
		default:
			if err != nil {
				t.Errorf("cell %d: unexpected error %v (sibling of a failed cell must still run)", i, err)
			}
			if out[i] == "" {
				t.Errorf("cell %d: no result", i)
			}
		}
	}
	if err := sweep.FirstErr(errs); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("FirstErr = %v, want the cell 5 panic", err)
	}
	if cells, _, errs := func() (int64, int64, int64) {
		r := &sweep.Runner{Workers: 4}
		r.Run(synthCells(make([]string, 3)))
		return r.Stats()
	}(); cells != 3 || errs != 0 {
		t.Errorf("fresh runner stats = (%d cells, %d errs), want (3, 0)", cells, errs)
	}
}

// small returns experiment options scaled for tests, with the given runner.
func small(r *sweep.Runner) exp.Options {
	return exp.Options{Scale: 0.05, Seed: 1, Runner: r}
}

// TestCrashSweepParallelMatchesSerial is the acceptance golden: the full
// fault-injection crashsweep merged at -j 8 must be byte-identical to -j 1.
// The Table (rows, notes, metrics) is compared via its JSON encoding.
func TestCrashSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("crashsweep golden is slow; run without -short")
	}
	serialTab := exp.CrashSweep(small(&sweep.Runner{Workers: 1}))
	parallelTab := exp.CrashSweep(small(&sweep.Runner{Workers: 8}))
	serial, err := json.Marshal(serialTab)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := json.Marshal(parallelTab)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Errorf("crashsweep -j8 output differs from -j1:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

// TestBuildReportParallelMatchesSerial pins the same property for the
// report pipeline, including its JSON archive form.
func TestBuildReportParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("report golden is slow; run without -short")
	}
	names := []string{"noop", "cfq", "afq", "split-token"}
	var serial, parallel bytes.Buffer
	if err := exp.BuildReport(small(&sweep.Runner{Workers: 1}), names).WriteJSON(&serial); err != nil {
		t.Fatal(err)
	}
	if err := exp.BuildReport(small(&sweep.Runner{Workers: 8}), names).WriteJSON(&parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Error("report -j8 JSON differs from -j1")
	}
}

// TestCellExperimentsParallelMatchSerial pins the same property for the
// other experiments that dispatch sweep cells (slo has its own test in
// internal/exp): each table (rows, notes, metrics) at -j 8 must be
// byte-identical to -j 1. Scale 0.05 clamps every measurement window to
// the 1 s minimum, which keeps each experiment's shape.
func TestCellExperimentsParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("cell-experiment goldens are slow; run without -short")
	}
	for _, id := range []string{"fig11", "gcsweep", "inversion", "abl-prompt", "abl-xfsfull", "abl-cowgc"} {
		t.Run(id, func(t *testing.T) {
			e, ok := exp.ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			marshal := func(workers int) []byte {
				b, err := json.Marshal(e.Run(small(&sweep.Runner{Workers: workers})))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if serial, parallel := marshal(1), marshal(8); !bytes.Equal(serial, parallel) {
				t.Errorf("%s -j8 output differs from -j1:\nserial:   %s\nparallel: %s", id, serial, parallel)
			}
		})
	}
}
