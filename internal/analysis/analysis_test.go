package analysis

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

// fixture runs a single analyzer over one golden-fixture module under
// testdata/src and returns the rendered findings.
func fixture(t *testing.T, a *Analyzer, name string) []string {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	findings, err := Run(root, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run(%s): %v", root, err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	return got
}

func assertFindings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\ngot:  %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

func TestSimClockFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerSimClock, "simclock/bad"), []string{
		"internal/cache/clock.go:6: [simclock] time.Now reads the host clock; use virtual time (sim.Env.Now / sim.Proc.Now)",
		"internal/cache/clock.go:9: [simclock] time.Since reads the host clock; use virtual time (sim.Env.Now / sim.Proc.Now)",
		"internal/cache/clock.go:12: [simclock] time.Sleep reads the host clock; use sim.Proc.Sleep, which advances virtual time",
		"internal/cache/clock.go:14: [splitlint] malformed ignore directive (want //splitlint:ignore <analyzer> <reason>)",
		"internal/cache/clock.go:15: [simclock] time.Now reads the host clock; use virtual time (sim.Env.Now / sim.Proc.Now)",
	})
	assertFindings(t, fixture(t, AnalyzerSimClock, "simclock/good"), nil)
	// The package allowlist: internal/perf and cmd/* read host time without
	// directives; every other package is still flagged.
	assertFindings(t, fixture(t, AnalyzerSimClock, "simclock/allow"), []string{
		"internal/sweep/sweep.go:7: [simclock] time.Since reads the host clock; use virtual time (sim.Env.Now / sim.Proc.Now)",
	})
}

func TestSimRandFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerSimRand, "simrand/bad"), []string{
		"internal/workload/rand.go:8: [simrand] rand.Intn uses the global generator; draw from the seeded sim RNG (sim.Env.Rand) instead",
		"internal/workload/rand.go:11: [simrand] rand.Seed uses the global generator; draw from the seeded sim RNG (sim.Env.Rand) instead",
		"internal/workload/rand.go:14: [simrand] rand.Float64 uses the global generator; draw from the seeded sim RNG (sim.Env.Rand) instead",
	})
	assertFindings(t, fixture(t, AnalyzerSimRand, "simrand/good"), nil)
}

func TestMapOrderFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerMapOrder, "maporder/bad"), []string{
		"internal/cache/maps.go:7: [maporder] map iteration order reaches program state: call emit may mutate sim state or emit trace/metric events in arbitrary order (line 8); sort the keys first or annotate with //splitlint:ignore",
		"internal/cache/maps.go:15: [maporder] map iteration order reaches program state: slice keys collects map elements but is never sorted afterwards in this function (line 16); sort the keys first or annotate with //splitlint:ignore",
		"internal/cache/maps.go:23: [maporder] map iteration order reaches program state: early return of a loop-dependent value (the element hit first is arbitrary) (line 24); sort the keys first or annotate with //splitlint:ignore",
		"internal/cache/maps.go:31: [maporder] map iteration order reaches program state: map/slice write not keyed by the loop key (duplicate targets make the last writer iteration-order dependent) (line 32); sort the keys first or annotate with //splitlint:ignore",
	})
	assertFindings(t, fixture(t, AnalyzerMapOrder, "maporder/good"), nil)
}

func TestNoGoroutineFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerNoGoroutine, "nogoroutine/bad"), []string{
		"internal/sim/conc.go:3: [nogoroutine] import of sync in the DES core: the simulation is single-threaded, sync primitives hide nondeterminism",
		"internal/sim/conc.go:8: [nogoroutine] channel type in the DES core",
		"internal/sim/conc.go:9: [nogoroutine] go statement in the DES core: spawn sim processes with sim.Env.Go instead",
		"internal/sim/conc.go:10: [nogoroutine] channel send in the DES core",
		"internal/sim/conc.go:12: [nogoroutine] channel receive in the DES core",
	})
	// The good fixture includes goroutine use in internal/exp, which is
	// outside the DES core and therefore allowed.
	assertFindings(t, fixture(t, AnalyzerNoGoroutine, "nogoroutine/good"), nil)
}

func TestLayerDepFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerLayerDep, "layerdep/bad"), []string{
		"internal/attr/attr.go:3: [layerdep] upward import: layer attr may not import cache (imports must flow downward vfs → cache → monitor → attr → crash → fs → block → fault → ssd → device); invert the dependency with an interface defined in attr",
		"internal/crash/crash.go:3: [layerdep] upward import: layer crash may not import cache (imports must flow downward vfs → cache → monitor → attr → crash → fs → block → fault → ssd → device); invert the dependency with an interface defined in crash",
		"internal/device/device.go:3: [layerdep] upward import: layer device may not import vfs (imports must flow downward vfs → cache → monitor → attr → crash → fs → block → fault → ssd → device); invert the dependency with an interface defined in device",
		"internal/fault/fault.go:3: [layerdep] upward import: layer fault may not import block (imports must flow downward vfs → cache → monitor → attr → crash → fs → block → fault → ssd → device); invert the dependency with an interface defined in fault",
		"internal/fs/fs.go:3: [layerdep] upward import: layer fs may not import cache (imports must flow downward vfs → cache → monitor → attr → crash → fs → block → fault → ssd → device); invert the dependency with an interface defined in fs",
	})
	// The good fixture exercises downward and layer-skipping imports
	// (vfs → cache, vfs → device, cache → block, attr → fs, fs → block,
	// crash → fs, crash → fault, fault → device, block → device).
	assertFindings(t, fixture(t, AnalyzerLayerDep, "layerdep/good"), nil)
}

func TestHotPurityFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerHotPurity, "hotpurity/bad"), []string{
		"internal/sched/myelv/myelv.go:30: [hotpurity] blocking call to sync.(*Mutex).Lock on the event-loop hot path: reachable via (*internal/sched/myelv.Elv).Next ((*internal/sched/myelv.Elv).Next is a block.Elevator implementation (scheduler dispatch/completion path))",
		"internal/sched/myelv/myelv.go:49: [hotpurity] blocking call to time.Sleep on the event-loop hot path: reachable via (*internal/sched/myelv.Elv).Completed -> internal/block.KickAll -> (internal/sched/myelv.sleeper).Kick ((*internal/sched/myelv.Elv).Completed is a block.Elevator implementation (scheduler dispatch/completion path))",
		"internal/sched/myelv/myelv.go:55: [hotpurity] go statement (goroutine spawn) on the event-loop hot path: reachable via internal/sched/myelv.Arm$1 (internal/sched/myelv.Arm$1 is a event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn))",
		"internal/sched/myelv/myelv.go:68: [hotpurity] allocation in //splitlint:hot region internal/sched/myelv.refresh: make (heap allocation); preallocate outside the hot path",
		"internal/sched/myelv/waitfn.go:21: [hotpurity] blocking call to sync.(*Mutex).Lock on the event-loop hot path: reachable via internal/sched/myelv.ArmWaiters$1 (internal/sched/myelv.ArmWaiters$1 is a event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn))",
		"internal/sched/myelv/waitfn.go:25: [hotpurity] go statement (goroutine spawn) on the event-loop hot path: reachable via internal/sched/myelv.ArmWaiters$2 (internal/sched/myelv.ArmWaiters$2 is a event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn))",
		"internal/sched/myelv/waitfn.go:33: [hotpurity] blocking call to time.Sleep on the event-loop hot path: reachable via internal/sched/myelv.expire (internal/sched/myelv.expire is a event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn))",
		"internal/sched/myelv/waitfn.go:38: [hotpurity] blocking channel receive on the event-loop hot path: reachable via internal/sched/myelv.barrier (internal/sched/myelv.barrier is a event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn))",
		"internal/sched/myelv/waitfn.go:43: [hotpurity] go statement (goroutine spawn) on the event-loop hot path: reachable via internal/sched/myelv.pump (internal/sched/myelv.pump is a event-loop callback (sim handler registration: Schedule/ScheduleAt/WaitFn/WaitTimeoutFn/WaitAllFn))",
		"internal/util/util.go:6: [hotpurity] blocking channel send on the event-loop hot path: reachable via (*internal/sched/myelv.Elv).Add -> internal/util.Notify ((*internal/sched/myelv.Elv).Add is a block.Elevator implementation (scheduler dispatch/completion path))",
	})
	// The good fixture has blocking code (util.Drain, a blocking Env.Go
	// process body) that no hot root reaches, plus pure continuations at
	// every continuation registration point (WaitFn/WaitTimeoutFn/
	// WaitAllFn) and a named Schedule handler: reachability decides, not
	// package membership.
	assertFindings(t, fixture(t, AnalyzerHotPurity, "hotpurity/good"), nil)
}

func TestTimeTaintFixtures(t *testing.T) {
	// Three flows, one finding each: a two-hop laundered timestamp
	// (perf.NowNS -> util.Stamp -> sim.Time conversion), a direct
	// host-duration Schedule argument, and a flow through a struct field
	// written in one function and read in another.
	assertFindings(t, fixture(t, AnalyzerTimeTaint, "timetaint/bad"), []string{
		"internal/cache/cache.go:18: [timetaint] host-derived time value flows into a sim.Time conversion; DES decisions must use virtual time (sim.Env.Now)",
		"internal/cache/cache.go:23: [timetaint] host-derived time value flows into argument #1 of (*internal/sim.Env).Schedule (a virtual-time/event-scheduling parameter); DES decisions must use virtual time (sim.Env.Now)",
		"internal/cache/cache.go:33: [timetaint] host-derived time value flows into a sim.Time conversion; DES decisions must use virtual time (sim.Env.Now)",
	})
	// The good fixture reads host time in perf and keeps it host-side;
	// source packages consuming their own values is not a violation.
	assertFindings(t, fixture(t, AnalyzerTimeTaint, "timetaint/good"), nil)
}

func TestFloatDetFixtures(t *testing.T) {
	assertFindings(t, fixture(t, AnalyzerFloatDet, "floatdet/bad"), []string{
		"internal/sched/fx/fx.go:12: [floatdet] float equality comparison: accumulated rounding makes == / != unstable across platforms; compare integers or use an explicit epsilon with a reviewed ignore",
		"internal/sched/fx/fx.go:18: [floatdet] float compound assignment accumulates rounding error into scheduler state; use integer units or carry a reviewed ignore explaining why the accumulation is platform-identical",
		"internal/sched/fx/fx.go:18: [floatdet] fusable float multiply-add: the compiler may emit FMA on arm64/ppc64, changing results across platforms; wrap the product in float64(...) to force rounding",
		"internal/sched/fx/fx.go:23: [floatdet] fusable float multiply-add: the compiler may emit FMA on arm64/ppc64, changing results across platforms; wrap the product in float64(...) to force rounding",
		"internal/sched/fx/fx.go:28: [floatdet] math.Exp is not exactly rounded and differs across architectures; only exactly-rounded math functions (Sqrt, Abs, Floor, ...) are allowed on sim-decision paths",
		"internal/sim/sim.go:6: [floatdet] float ordered comparison in an event-ordering package: a flipped branch reorders the event stream; order by integer (ns) quantities",
	})
	// The good fixture exercises the allowed forms: float64(x*y)+z, single
	// rounded divisions, ordered comparisons in accounting and device-model
	// packages, and exactly-rounded math.Sqrt.
	assertFindings(t, fixture(t, AnalyzerFloatDet, "floatdet/good"), nil)
}

// TestAuditFixture: -audit reports each directive analyzer that suppressed
// nothing, including the stale half of a two-analyzer directive.
func TestAuditFixture(t *testing.T) {
	root := filepath.Join("testdata", "src", "audit", "bad")
	findings, err := RunOpts(root, Analyzers(), Options{Audit: true})
	if err != nil {
		t.Fatalf("RunOpts: %v", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	assertFindings(t, got, []string{
		"internal/cache/cache.go:14: [audit] stale ignore: the directive suppresses no maporder finding on this or the next line; delete it or the analyzer name",
		"internal/cache/cache.go:20: [audit] stale ignore: the directive suppresses no simrand finding on this or the next line; delete it or the analyzer name",
	})
}

// TestRepoIsClean runs the full suite — including the interprocedural
// analyzers and the stale-suppression audit — over this module: the
// simulator's own code must satisfy the determinism contract it enforces,
// and every //splitlint:ignore directive must still be earning its keep.
func TestRepoIsClean(t *testing.T) {
	root := filepath.Join("..", "..")
	findings, err := RunOpts(root, Analyzers(), Options{Audit: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestSeverityRendering pins the warn-tier text form and the severity
// counter the CLI's exit code keys off.
func TestSeverityRendering(t *testing.T) {
	f := Finding{File: "a.go", Line: 3, Analyzer: "floatdet", Severity: SeverityWarn, Message: "m"}
	if got, want := f.String(), "a.go:3: [floatdet] warning: m"; got != want {
		t.Errorf("warn rendering: got %q, want %q", got, want)
	}
	errs, warns := CountBySeverity([]Finding{f, {Severity: SeverityError}, {}})
	if errs != 2 || warns != 1 {
		t.Errorf("CountBySeverity = (%d, %d), want (2, 1)", errs, warns)
	}
}

func TestWriteFindingsJSON(t *testing.T) {
	in := []Finding{
		{File: "a.go", Line: 3, Col: 2, Analyzer: "simclock", Message: "m1"},
		{File: "b.go", Line: 7, Col: 1, Analyzer: "layerdep", Message: "m2"},
	}
	var buf bytes.Buffer
	if err := WriteFindings(&buf, in, true); err != nil {
		t.Fatalf("WriteFindings: %v", err)
	}
	var out []Finding
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("JSON round trip mismatch: %+v", out)
	}

	// No findings must encode as an empty array, not null: consumers key
	// off array length.
	buf.Reset()
	if err := WriteFindings(&buf, nil, true); err != nil {
		t.Fatalf("WriteFindings(nil): %v", err)
	}
	var empty []Finding
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil {
		t.Fatalf("empty output invalid: %v", err)
	}
	if bytes.TrimSpace(buf.Bytes())[0] != '[' {
		t.Errorf("empty findings should encode as [], got %s", buf.String())
	}
}

func TestWriteFindingsText(t *testing.T) {
	in := []Finding{{File: "a.go", Line: 3, Col: 2, Analyzer: "simrand", Message: "m"}}
	var buf bytes.Buffer
	if err := WriteFindings(&buf, in, false); err != nil {
		t.Fatalf("WriteFindings: %v", err)
	}
	want := "a.go:3: [simrand] m\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}
