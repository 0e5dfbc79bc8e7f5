// Package schedtest provides shared fixtures for scheduler integration
// tests: a small-RAM kernel (so large-file scans always miss the cache),
// helpers that run the paper's canonical antagonist pairs, and trace-based
// assertions on cross-layer ordering invariants.
package schedtest

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"splitio/internal/attr"
	"splitio/internal/cache"
	"splitio/internal/core"
	"splitio/internal/fs"
	"splitio/internal/metrics"
	"splitio/internal/sim"
	"splitio/internal/trace"
	"splitio/internal/vfs"
)

// SmallCache is a 256 MiB cache config: big enough for dirty buffering,
// small enough that multi-GiB scans never hit.
func SmallCache() cache.Config {
	c := cache.DefaultConfig()
	c.TotalPages = 256 << 20 / cache.PageSize
	return c
}

// Kernel builds a kernel with the small cache; mut (optional) tweaks
// options first. The kernel is closed at test or benchmark cleanup.
func Kernel(t testing.TB, factory core.Factory, mut func(*core.Options)) *core.Kernel {
	t.Helper()
	opts := core.DefaultOptions()
	cc := SmallCache()
	opts.Cache = &cc
	if mut != nil {
		mut(&opts)
	}
	k := core.NewKernel(opts, factory)
	t.Cleanup(k.Close)
	return k
}

// BigFile creates a contiguous file of size bytes.
func BigFile(k *core.Kernel, path string, size int64) *fs.File {
	return k.FS.MkFileContiguous(path, size)
}

// Throughputs runs the kernel for d and returns each process's MB/s of
// reads+writes over the window, in spawn order. Counters are reset first.
func Throughputs(k *core.Kernel, d time.Duration, procs ...*vfs.Process) []float64 {
	start := k.Now()
	for _, pr := range procs {
		pr.BytesRead.Reset(start)
		pr.BytesWritten.Reset(start)
	}
	k.Run(d)
	now := k.Now()
	out := make([]float64, len(procs))
	for i, pr := range procs {
		out[i] = pr.BytesRead.MBps(now) + pr.BytesWritten.MBps(now)
	}
	return out
}

// Warm runs the kernel for d to let workloads reach steady state.
func Warm(k *core.Kernel, d time.Duration) { k.Run(d) }

// EnableTrace turns on the kernel's tracer and attaches a Collector to it.
// Call before spawning workload processes so every request is captured.
func EnableTrace(k *core.Kernel) *Collector {
	c := &Collector{}
	k.Trace.Attach(c)
	k.Trace.Enable()
	return c
}

// Collector is a trace sink that keeps every event, for tests that assert
// on a whole (short) run's events.
type Collector struct {
	Events []trace.Event
}

// Consume implements trace.Sink.
func (c *Collector) Consume(ev trace.Event) { c.Events = append(c.Events, ev) }

// Tail is a trace sink that keeps the newest N events of a run (in at most
// 2N events of memory), so a long run's trace can be hashed.
type Tail struct {
	N      int
	events []trace.Event
}

// Consume implements trace.Sink.
func (t *Tail) Consume(ev trace.Event) {
	if len(t.events) == 2*t.N {
		t.events = append(t.events[:0], t.events[t.N:]...)
	}
	t.events = append(t.events, ev)
}

// Events returns the newest N events, oldest first.
func (t *Tail) Events() []trace.Event { return t.events[max(0, len(t.events)-t.N):] }

// TraceHash digests the deterministic fields of every event. Causes is
// omitted (it is set-valued); everything ordered and timed is included, so
// two runs collide only if they performed identical I/O at identical
// virtual times. The schedule goldens pin it per property cell and per
// experiment.
func TraceHash(events []trace.Event) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			e.Layer, e.Op, e.Label, e.Req, e.PID, int64(e.Start), int64(e.End),
			e.Ino, e.Page, e.LBA, e.Blocks, e.Bytes, e.Prio, e.Txn, e.Flags)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Goldens is a committed schedule-golden file: one "key field=value ..."
// line per key, where the key is the line's first space-separated field.
// Blank lines and lines starting with '#' are comments.
type Goldens struct {
	path  string
	lines map[string]string
}

// LoadGoldens reads the golden file at path, failing t if it is missing.
func LoadGoldens(t testing.TB, path string) *Goldens {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("schedule goldens: %v", err)
	}
	g := &Goldens{path: path, lines: make(map[string]string)}
	for _, ln := range strings.Split(string(data), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		key, _, _ := strings.Cut(ln, " ")
		g.lines[key] = ln
	}
	return g
}

// Check compares key's golden line with key + " " + payload. There is no
// update flag: on a mismatch the failure prints the complete replacement
// line, and a deliberate behaviour change pastes it into the file.
func (g *Goldens) Check(t testing.TB, key, payload string) {
	t.Helper()
	got := key + " " + payload
	want, ok := g.lines[key]
	if !ok {
		t.Errorf("%s has no line for %s; add:\n%s", g.path, key, got)
		return
	}
	if got != want {
		t.Errorf("%s: schedule moved for %s\n  golden: %s\nreplacement line:\n%s", g.path, key, want, got)
	}
}

// MetricsDump renders every sampled gauge series of r in a canonical text
// form (sorted names, every point as time=value), skipping names that carry
// any of the given prefixes. The experiment schedule goldens exclude
// "sim.switches": process handoffs depend on how blocking code is bridged
// onto the event loop, not on the schedule.
func MetricsDump(r *metrics.Registry, excludePrefixes ...string) string {
	var b strings.Builder
	names := r.Names()
	sort.Strings(names)
	for _, name := range names {
		skip := false
		for _, pfx := range excludePrefixes {
			if strings.HasPrefix(name, pfx) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		fmt.Fprintf(&b, "%s:", name)
		if s := r.Series(name); s != nil {
			for _, p := range s.Points {
				fmt.Fprintf(&b, " %d=%g", int64(p.T), p.V)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RequestTree groups events by request ID (dropping the untagged req 0
// bucket), so a test can walk one syscall's cross-layer fan-out.
func RequestTree(events []trace.Event) map[trace.ReqID][]trace.Event {
	tree := trace.ByReq(events)
	delete(tree, 0)
	return tree
}

// AssertLayerSpans fails the test unless events contain at least one span
// from each of the given layers.
func AssertLayerSpans(t *testing.T, events []trace.Event, layers ...trace.Layer) {
	t.Helper()
	seen := make(map[trace.Layer]int)
	for _, e := range events {
		seen[e.Layer]++
	}
	for _, l := range layers {
		if seen[l] == 0 {
			t.Errorf("trace has no %s-layer spans (got %d events total)", l, len(events))
		}
	}
}

// AssertOrderedCommits checks the journaling core invariant of ordered mode:
// within each traced transaction, every ordered-data flush (and every data
// write the commit forced to disk) completes before the transaction's
// journal barrier write begins. A violation means the commit record could
// hit the platter ahead of the data it orders.
func AssertOrderedCommits(t *testing.T, events []trace.Event) (checked int) {
	t.Helper()
	// Walk request trees in sorted ID order so failure output is stable
	// across runs (map order would shuffle the t.Errorf lines).
	tree := RequestTree(events)
	reqs := make([]trace.ReqID, 0, len(tree))
	for req := range tree {
		reqs = append(reqs, req)
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i] < reqs[j] })
	for _, req := range reqs {
		evs := tree[req]
		// The barrier device span is the commit record reaching the device.
		barrier := sim.Time(0)
		haveBarrier := false
		for _, e := range evs {
			if e.Layer == trace.LayerDevice && e.Flags.Has(trace.FlagBarrier) {
				if !haveBarrier || e.Start < barrier {
					barrier = e.Start
					haveBarrier = true
				}
			}
		}
		if !haveBarrier {
			continue // not a commit tree
		}
		checked++
		for _, e := range evs {
			switch {
			case e.Op == trace.OpOrderedFlush:
				if e.End > barrier {
					t.Errorf("req %d: ordered flush of ino %d ends at %v, after journal barrier starts at %v", req, e.Ino, e.End, barrier)
				}
			case e.Layer == trace.LayerDevice && e.Flags.Has(trace.FlagWrite) && !e.Flags.Has(trace.FlagJournal):
				if e.End > barrier {
					t.Errorf("req %d: ordered data write at lba %d ends at %v, after journal barrier starts at %v", req, e.LBA, e.End, barrier)
				}
			}
		}
	}
	return checked
}

// AssertNoInversion fails the test if a detected any inversions of the
// given kinds (all kinds when none are listed) — the paper's headline
// claim for split schedulers: isolation without cross-process entanglement.
func AssertNoInversion(t *testing.T, a *attr.Attribution, kinds ...attr.Kind) {
	t.Helper()
	if len(kinds) == 0 {
		kinds = attr.Kinds()
	}
	want := make(map[attr.Kind]bool, len(kinds))
	total := int64(0)
	for _, k := range kinds {
		want[k] = true
		if n := a.InversionCount(k); n > 0 {
			t.Errorf("found %d %s inversions (victim time %v), want 0", n, k, a.InversionTime(k))
			total += n
		}
	}
	if total == 0 {
		return
	}
	// List a few retained records so the failure names victims and culprits.
	shown := 0
	for _, inv := range a.Inversions() {
		if !want[inv.Kind] {
			continue
		}
		t.Logf("  %s: victim=%d culprit=%d layer=%s dur=%v txn=%d req=%d",
			inv.Kind, inv.Victim, inv.Culprit, inv.Layer, inv.Dur, inv.Txn, inv.Req)
		if shown++; shown >= 10 {
			break
		}
	}
}

// AssertLatencyBudget fails the test if any requested quantile of h
// exceeds its budget. qs and budgets are index-aligned percentiles (e.g.
// qs={50,99}, budgets={5ms, 100ms}); name labels the failure.
func AssertLatencyBudget(t *testing.T, name string, h *metrics.Histogram, qs []float64, budgets []time.Duration) {
	t.Helper()
	if h == nil {
		t.Errorf("%s: no histogram (no requests attributed?)", name)
		return
	}
	if len(qs) != len(budgets) {
		t.Fatalf("%s: %d quantiles but %d budgets", name, len(qs), len(budgets))
	}
	got := h.Quantiles(qs)
	for i, q := range qs {
		if got[i] > budgets[i] {
			t.Errorf("%s: p%g latency %v exceeds budget %v", name, q, got[i], budgets[i])
		}
	}
}
