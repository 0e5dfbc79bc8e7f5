// Race-focused tests of the sweep runner and cache: serial and parallel
// runs must produce byte-identical merged output, a panicking cell must
// surface as that cell's error (not a deadlock), and the cache must treat
// anything questionable — corrupt entry, key mismatch, version change — as
// a miss. The exp-backed tests at the bottom pin the end-to-end acceptance
// claim: crashsweep and report output is byte-identical at -j 1 and -j 8.
//
// The package is sweep_test (external) so it can import exp without a
// cycle; run with `go test -race` to make the pool's synchronization part
// of what is tested.

package sweep_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"splitio/internal/exp"
	"splitio/internal/sim"
	"splitio/internal/sweep"
)

// synthCells builds n deterministic cells whose payload encodes their
// index, so any ordering mistake in the merge is visible in the bytes.
func synthCells(n int) []sweep.Cell {
	cells := make([]sweep.Cell, n)
	for i := range cells {
		i := i
		cells[i] = sweep.Cell{
			Key: sweep.Key{Experiment: "synth", Config: fmt.Sprintf("cell=%d", i), Seed: int64(i), Version: "test"},
			Run: func() ([]byte, error) {
				return []byte(fmt.Sprintf(`{"cell":%d,"sq":%d}`, i, i*i)), nil
			},
		}
	}
	return cells
}

// merged flattens results into one byte stream in result order.
func merged(rs []sweep.Result) []byte {
	var buf bytes.Buffer
	for _, r := range rs {
		buf.WriteString(r.Key.String())
		buf.WriteByte('=')
		buf.Write(r.Data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSerialParallelEquivalence(t *testing.T) {
	cells := synthCells(64)
	serial := (&sweep.Runner{Workers: 1}).Run(cells)
	for _, workers := range []int{2, 8, 0} {
		parallel := (&sweep.Runner{Workers: workers}).Run(cells)
		if !bytes.Equal(merged(serial), merged(parallel)) {
			t.Errorf("workers=%d: merged output differs from serial", workers)
		}
	}
	for i, r := range serial {
		if r.Err != nil {
			t.Fatalf("cell %d failed: %v", i, r.Err)
		}
		var payload struct{ Cell, Sq int }
		if err := json.Unmarshal(r.Data, &payload); err != nil || payload.Cell != i || payload.Sq != i*i {
			t.Fatalf("cell %d: payload %q out of order or corrupt", i, r.Data)
		}
	}
}

func TestPanickingCellSurfacesAsError(t *testing.T) {
	cells := synthCells(16)
	cells[5].Run = func() ([]byte, error) { panic("cell exploded") }
	cells[9].Run = func() ([]byte, error) { return nil, fmt.Errorf("plain failure") }
	// A panic inside a simulated process fails only its own cell, too.
	cells[12].Run = func() ([]byte, error) {
		env := sim.NewEnv(1)
		defer env.Close()
		env.Go("bystander", func(p *sim.Proc) { p.Sleep(time.Hour) })
		env.Go("exploder", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			panic("process exploded")
		})
		env.RunAll()
		return []byte("unreachable"), nil
	}
	// Workers > 1 so a wedged pool would deadlock the test (and -race would
	// flag any unsynchronized slot writes).
	rs := (&sweep.Runner{Workers: 4}).Run(cells)
	if len(rs) != 16 {
		t.Fatalf("got %d results, want 16", len(rs))
	}
	for i, r := range rs {
		switch i {
		case 5:
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked: cell exploded") {
				t.Errorf("cell 5: err = %v, want recovered panic", r.Err)
			}
			if !strings.Contains(r.Err.Error(), "cell=5") {
				t.Errorf("cell 5: err does not name the cell: %v", r.Err)
			}
		case 9:
			if r.Err == nil || !strings.Contains(r.Err.Error(), "plain failure") {
				t.Errorf("cell 9: err = %v, want plain failure", r.Err)
			}
		case 12:
			if r.Err == nil || !strings.Contains(r.Err.Error(), `cell=12`) ||
				!strings.Contains(r.Err.Error(), `process "exploder" panicked at 1ms: process exploded`) {
				t.Errorf("cell 12: err = %v, want the cell and the process named", r.Err)
			}
			if r.Data != nil {
				t.Errorf("cell 12: data %q from a failed cell", r.Data)
			}
		default:
			if r.Err != nil {
				t.Errorf("cell %d: unexpected error %v (sibling of a failed cell must still run)", i, r.Err)
			}
			if len(r.Data) == 0 {
				t.Errorf("cell %d: no data", i)
			}
		}
	}
	if err := sweep.FirstErr(rs); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("FirstErr = %v, want the cell 5 panic", err)
	}
	if cells, _, errs := func() (int64, int64, int64) {
		r := &sweep.Runner{Workers: 4}
		r.Run(synthCells(3))
		return r.Stats()
	}(); cells != 3 || errs != 0 {
		t.Errorf("fresh runner stats = (%d cells, %d errs), want (3, 0)", cells, errs)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := sweep.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := sweep.Key{Experiment: "e", Config: "c=1", Seed: 7, Version: "v1"}
	if _, ok := c.Get(k); ok {
		t.Fatal("Get on empty cache hit")
	}
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	data, ok := c.Get(k)
	if !ok || string(data) != "payload" {
		t.Fatalf("Get = %q, %v; want payload, true", data, ok)
	}
	// A different version is a different identity: must miss.
	k2 := k
	k2.Version = "v2"
	if _, ok := c.Get(k2); ok {
		t.Error("version-mismatched key hit the cache")
	}
}

// TestExecutableVersionInvalidates pins the version component: two
// executables that differ in one byte get different versions, so results
// one build cached miss under the other; an unreadable executable yields
// the empty version, which never hits or fills the cache.
func TestExecutableVersionInvalidates(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sweep.ModuleVersion(), sweep.FileVersion(self); got == "" || got != want {
		t.Fatalf("ModuleVersion = %q, want the running executable's %q", got, want)
	}
	bin, err := os.ReadFile(self)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, bin, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, append(bin, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	va, vb := sweep.FileVersion(a), sweep.FileVersion(b)
	if va == "" || vb == "" || va == vb {
		t.Fatalf("versions of distinct executables: %q, %q", va, vb)
	}

	c, err := sweep.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	k := sweep.Key{Experiment: "e", Config: "c=1", Seed: 7, Version: va}
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatal("same build missed its own entry")
	}
	k.Version = vb
	if _, ok := c.Get(k); ok {
		t.Error("second executable hit the first one's entry")
	}

	if v := sweep.FileVersion(filepath.Join(dir, "missing")); v != "" {
		t.Fatalf("unreadable executable versioned as %q, want empty", v)
	}
	k.Version = ""
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("unversioned key hit the cache")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := sweep.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := sweep.Key{Experiment: "e", Config: "c=1", Seed: 7, Version: "v1"}
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Corrupt every entry file in place.
	var entries []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".json") {
			entries = append(entries, path)
		}
		return nil
	})
	if len(entries) != 1 {
		t.Fatalf("found %d cache entries, want 1", len(entries))
	}
	if err := os.WriteFile(entries[0], []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("corrupt entry read as a hit")
	}
	// An entry whose embedded key disagrees with its filename (hand-edited,
	// or a hypothetical hash collision) is also a miss.
	forged, _ := json.Marshal(map[string]any{
		"key":  sweep.Key{Experiment: "other", Config: "c=1", Seed: 7, Version: "v1"},
		"data": []byte("wrong"),
	})
	if err := os.WriteFile(entries[0], forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k); ok {
		t.Error("key-mismatched entry read as a hit")
	}
}

func TestRunnerCacheSkipsSecondRun(t *testing.T) {
	c, err := sweep.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	cells := synthCells(8)
	for i := range cells {
		inner := cells[i].Run
		cells[i].Run = func() ([]byte, error) { ran++; return inner() }
	}
	r := &sweep.Runner{Workers: 1, Cache: c}
	first := r.Run(cells)
	if ran != 8 {
		t.Fatalf("first run executed %d cells, want 8", ran)
	}
	second := r.Run(cells)
	if ran != 8 {
		t.Errorf("second run executed %d extra cells, want 0 (all cached)", ran-8)
	}
	if !bytes.Equal(merged(first), merged(second)) {
		t.Error("cached results differ from fresh results")
	}
	for _, res := range second {
		if !res.Cached {
			t.Errorf("cell %s not served from cache", res.Key)
		}
	}
	cellsN, cached, errs := r.Stats()
	if cellsN != 16 || cached != 8 || errs != 0 {
		t.Errorf("Stats = (%d, %d, %d), want (16, 8, 0)", cellsN, cached, errs)
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
