package main

import (
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"splitio/internal/exp"
)

// TestEveryPackageHasALayer walks internal/ so a new package cannot go
// unattributed: its samples would land in whatever repo frame called it.
func TestEveryPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "..", "internal")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == root {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := slices.ContainsFunc(ents, func(e fs.DirEntry) bool {
			return strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go")
		})
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(filepath.Join("..", ".."), path)
		if err != nil {
			return err
		}
		pkg := modulePath + "/" + filepath.ToSlash(rel)
		if l := packageLayer(pkg); !slices.Contains(layers, l) {
			t.Errorf("package %s maps to layer %q, not one of %v", pkg, l, layers)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "splitio/internal/cache.(*Cache).MarkDirty", "splitio/internal/vfs.(*VFS).Write"}, "cache"},
		{[]string{"runtime.mapaccess2", "splitio/internal/sched/afq.(*AFQ).Add"}, "sched"},
		{[]string{"splitio/internal/ioctx.Ctx.Causes"}, "causes"},
		{[]string{"splitio/internal/apps/hdfssim.(*Cluster).Run.func1"}, "workload"},
		{[]string{"splitio/internal/sim.Drain[splitio/internal/cache.pageKey]"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "goroutine"},
		{[]string{"main.run", "runtime.main"}, "harness"},
		{nil, "goroutine"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestTracedRepeats profiles a short experiment twice: the layers must
// add up to the profile exactly, and every exact counter must repeat.
func TestTracedRepeats(t *testing.T) {
	e, ok := exp.ByID("fig9")
	if !ok {
		t.Fatal("fig9 is not an experiment")
	}
	var reps []*repResult
	for i := 0; i < 2; i++ {
		r, err := runRep([]exp.Experiment{e}, 1, true, func() {})
		if err != nil {
			t.Fatal(err)
		}
		st := r.Trace
		if st.Samples <= 0 {
			t.Fatalf("rep %d: profile.samples = %d, want > 0", i, st.Samples)
		}
		var sum int64
		for l, ns := range st.LayerNS {
			if !slices.Contains(layers, l) {
				t.Errorf("rep %d: samples charged to unknown layer %q", i, l)
			}
			sum += ns
		}
		if sum != st.ProfileNS {
			t.Errorf("rep %d: layer self times sum to %d ns, profile total is %d ns", i, sum, st.ProfileNS)
		}
		if st.Sim.Events <= 0 {
			t.Errorf("rep %d: sim.events = %d, want > 0", i, st.Sim.Events)
		}
		reps = append(reps, r)
	}
	a, b := reps[0], reps[1]
	if a.Experiments[0] != b.Experiments[0] || a.Experiments[0].Error != "" {
		t.Errorf("experiment results differ or failed: %+v vs %+v", a.Experiments[0], b.Experiments[0])
	}
	if a.Cells != b.Cells {
		t.Errorf("harness.cells: %d then %d", a.Cells, b.Cells)
	}
	if a.Trace.Sim.Events != b.Trace.Sim.Events {
		t.Errorf("sim.events: %d then %d", a.Trace.Sim.Events, b.Trace.Sim.Events)
	}
	if !maps.Equal(a.Trace.Calls, b.Trace.Calls) {
		t.Errorf("probe calls: %v then %v", a.Trace.Calls, b.Trace.Calls)
	}
}
