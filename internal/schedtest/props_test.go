// Metamorphic scheduler-invariant property suite: every scheduler, on a
// matrix of seeds, must satisfy properties that hold regardless of policy —
// work conservation (the device never idles long while requests are
// queued), no starvation (every finite workload process finishes), and
// determinism (same seed, same trace; different seed, same completion set).
// The matrix is fanned across the host with the sweep engine, which also
// exercises the runner's canonical-order merge under -race.

package schedtest

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"splitio/internal/core"
	"splitio/internal/sched/afq"
	"splitio/internal/sched/bdeadline"
	"splitio/internal/sched/cfq"
	"splitio/internal/sched/gcafq"
	"splitio/internal/sched/noop"
	"splitio/internal/sched/scstoken"
	"splitio/internal/sched/sdeadline"
	"splitio/internal/sched/stoken"
	"splitio/internal/sim"
	"splitio/internal/sweep"
	"splitio/internal/trace"
	"splitio/internal/workload"
)

// propSchedulers is the full scheduler matrix, in canonical order. It
// mirrors exp's factory table without importing exp (which would invert
// the test-helper layering).
var propSchedulers = []struct {
	name    string
	factory core.Factory
}{
	{"noop", noop.Factory},
	{"cfq", cfq.Factory},
	{"block-deadline", bdeadline.Factory},
	{"scs-token", scstoken.Factory},
	{"afq", afq.Factory},
	{"gc-afq", gcafq.Factory},
	{"split-deadline", sdeadline.Factory},
	{"split-pdflush", sdeadline.PdflushFactory},
	{"split-token", stoken.Factory},
}

// propSeeds is how many seeds each scheduler is run under.
const propSeeds = 32

// propWorkload is the finite mixed workload every cell runs: writers and
// readers across priorities, with fsync traffic to drag the journal in.
// Every process performs an exact byte count and exits, which is what makes
// "did everyone finish" assertable. The random reader works over a 1 GiB
// file so its pattern (and thus the trace) genuinely varies with the seed.
var propWorkload = []workload.ProcSpec{
	{Kind: "seqwrite", Name: "w", Prio: 1, File: "/w", Chunk: 64 << 10, Bytes: 512 << 10, Size: 512 << 10, FsyncEnd: true},
	{Kind: "randread", Name: "r", Prio: 6, File: "/big", Chunk: 16 << 10, Bytes: 256 << 10, Size: 1 << 30},
	{Kind: "fsyncappend", Name: "fa", Prio: 4, File: "/log", Chunk: 32 << 10, Bytes: 128 << 10, Size: 128 << 10},
	{Kind: "seqread", Name: "sr", Prio: 0, File: "/cold", Chunk: 128 << 10, Bytes: 512 << 10, Size: 64 << 20},
}

// maxIdleWhileQueued bounds how long the device may sit idle while block
// requests are queued. Strict work conservation is deliberately false here:
// CFQ idles up to ~2 ms anticipating the last process's next request, and
// the token schedulers have comparable anticipation grace. The bound allows
// those policies but catches a scheduler that forgets to kick its queue.
const maxIdleWhileQueued = 25 * time.Millisecond

// propResult is one cell's payload: everything the properties assert on,
// JSON-encoded so cells can flow through the sweep runner.
type propResult struct {
	// Hash digests the full event trace (layer, op, timing, extents).
	Hash string `json:"hash"`
	// Done lists each process's completed I/O as "name=read:N,wrote:N,fsync:N"
	// in spawn order.
	Done []string `json:"done"`
	// MaxIdleNS is the longest device idle stretch while requests were queued.
	MaxIdleNS int64 `json:"max_idle_ns"`
	// Events is the trace length (a cheap sanity signal that tracing saw work).
	Events int `json:"events"`
}

// runPropCell runs the canonical workload under one (scheduler, seed) and
// extracts the property payload. It is called from sweep worker goroutines,
// so it touches nothing but its own kernel.
func runPropCell(factory core.Factory, seed int64) propResult {
	opts := core.DefaultOptions()
	opts.Seed = seed
	cc := SmallCache()
	opts.Cache = &cc
	k := core.NewKernelOn(sim.NewEnv(seed), opts, factory)
	defer k.Env.Close()
	col := EnableTrace(k)

	procs := workload.Spawn(k, propWorkload)
	// The workload is finite; the window is virtual headroom, not runtime.
	k.Run(5 * time.Minute)

	events := col.Events
	res := propResult{
		Hash:      TraceHash(events),
		MaxIdleNS: int64(idleWhileQueued(events)),
		Events:    len(events),
	}
	for i, pr := range procs {
		res.Done = append(res.Done, fmt.Sprintf("%s=read:%d,wrote:%d,fsync:%d",
			propWorkload[i].Name, pr.BytesRead.Total(), pr.BytesWritten.Total(), pr.Fsyncs.Count()))
	}
	return res
}

// span is a half-open [start, end) interval in virtual time.
type span struct{ start, end int64 }

// mergeSpans sorts and coalesces overlapping or touching spans.
func mergeSpans(spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := spans[:1]
	for _, s := range spans[1:] {
		if last := &out[len(out)-1]; s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// idleWhileQueued returns the longest contiguous stretch of virtual time
// during which at least one block request was queued (its queue span
// covers the instant) but the device serviced nothing.
func idleWhileQueued(events []trace.Event) time.Duration {
	var queued, busy []span
	for _, e := range events {
		s := span{int64(e.Start), int64(e.End)}
		if s.end <= s.start {
			continue
		}
		switch {
		case e.Layer == trace.LayerBlock && e.Op == trace.OpQueue:
			queued = append(queued, s)
		case e.Layer == trace.LayerDevice:
			busy = append(busy, s)
		}
	}
	queued = mergeSpans(queued)
	busy = mergeSpans(busy)
	// Both lists are disjoint and sorted, so one forward cursor over busy
	// suffices: a later queue span never starts before an earlier one ends.
	var maxIdle int64
	bi := 0
	for _, q := range queued {
		// Rewind to the first busy span that could cover q.start (a busy span
		// can straddle two queue spans).
		for bi > 0 && busy[bi-1].end > q.start {
			bi--
		}
		t := q.start
		for t < q.end {
			for bi < len(busy) && busy[bi].end <= t {
				bi++
			}
			if bi < len(busy) && busy[bi].start <= t {
				// Device busy at t; skip to the end of this busy span.
				t = busy[bi].end
				continue
			}
			// Idle gap from t to the next busy span or the queue span's end.
			gap := q.end
			if bi < len(busy) && busy[bi].start < gap {
				gap = busy[bi].start
			}
			if gap-t > maxIdle {
				maxIdle = gap - t
			}
			t = gap
		}
	}
	return time.Duration(maxIdle)
}

// propCellKey labels one matrix cell for the sweep cache and error output.
func propCellKey(sched string, seed int64) sweep.Key {
	return sweep.Key{Experiment: "schedtest-props", Config: "sched=" + sched, Seed: seed, Version: "test"}
}

// runPropMatrix fans the full (scheduler × seed) matrix through the sweep
// runner and returns the decoded payloads indexed [scheduler][seed].
func runPropMatrix(t *testing.T, seeds int) [][]propResult {
	t.Helper()
	cells := make([]sweep.Cell, 0, len(propSchedulers)*seeds)
	for _, s := range propSchedulers {
		factory := s.factory
		for seed := int64(1); seed <= int64(seeds); seed++ {
			seed := seed
			cells = append(cells, sweep.Cell{
				Key: propCellKey(s.name, seed),
				Run: func() ([]byte, error) {
					return json.Marshal(runPropCell(factory, seed))
				},
			})
		}
	}
	runner := &sweep.Runner{Workers: 0} // one per CPU
	results := runner.Run(cells)
	out := make([][]propResult, len(propSchedulers))
	for i := range propSchedulers {
		out[i] = make([]propResult, seeds)
		for j := 0; j < seeds; j++ {
			r := results[i*seeds+j]
			if r.Err != nil {
				t.Fatalf("cell %s: %v", r.Key, r.Err)
			}
			if err := json.Unmarshal(r.Data, &out[i][j]); err != nil {
				t.Fatalf("cell %s: bad payload: %v", r.Key, err)
			}
		}
	}
	return out
}

// propSeedCount trims the matrix in -short mode so `go test -short` stays
// quick; full runs and CI use all 32 seeds.
func propSeedCount() int {
	if testing.Short() {
		return 4
	}
	return propSeeds
}

var (
	sharedMatrixOnce sync.Once
	sharedMatrix     [][]propResult
)

// sharedPropMatrix runs the propSeedCount() matrix once per test binary and
// hands the same result to every test that only reads it, so the property
// checks and the golden comparison share one 9 × 32 run.
func sharedPropMatrix(t *testing.T) [][]propResult {
	t.Helper()
	sharedMatrixOnce.Do(func() { sharedMatrix = runPropMatrix(t, propSeedCount()) })
	if sharedMatrix == nil {
		t.Fatal("the shared property matrix failed to run; see the first test that used it")
	}
	return sharedMatrix
}

// propGoldens pins every (scheduler, seed) cell's trace hash and length.
// Short mode checks the first propSeedCount() seeds of the same file.
const propGoldens = "testdata/schedule_goldens.txt"

// TestEngineEquivalence checks every cell of the shared matrix against the
// committed schedule goldens. The goldens were recorded while the handler
// engine and the cooperative-coroutine engine it replaced were still proven
// byte-identical cell by cell, so a matching trace hash and length means
// the handler engine still produces that engine's exact event schedule.
func TestEngineEquivalence(t *testing.T) {
	seeds := propSeedCount()
	matrix := sharedPropMatrix(t)
	goldens := LoadGoldens(t, propGoldens)
	for i, s := range propSchedulers {
		for j := 0; j < seeds; j++ {
			res := matrix[i][j]
			name := fmt.Sprintf("%s/seed%d", s.name, j+1)
			goldens.Check(t, name, fmt.Sprintf("hash=%s events=%d", res.Hash, res.Events))
		}
	}
}

// TestSchedulerProperties checks, per cell of the shared matrix: no
// starvation (exact completion), bounded idle-while-queued, and a
// non-trivial trace; then across cells: the completion set is identical
// for every scheduler and every seed, while the trace hashes diverge
// across seeds (the metamorphic complement — if they did not, the
// determinism property would be vacuous).
func TestSchedulerProperties(t *testing.T) {
	seeds := propSeedCount()
	matrix := sharedPropMatrix(t)

	// The expected completion set comes from the workload definition: each
	// process does exactly its configured bytes, regardless of scheduler or
	// seed. fa fsyncs once per 32K chunk of its 128K; w fsyncs once at end.
	want := []string{
		"w=read:0,wrote:524288,fsync:1",
		"r=read:262144,wrote:0,fsync:0",
		"fa=read:0,wrote:131072,fsync:4",
		"sr=read:524288,wrote:0,fsync:0",
	}
	for i, s := range propSchedulers {
		for j := 0; j < seeds; j++ {
			res := matrix[i][j]
			name := fmt.Sprintf("%s/seed%d", s.name, j+1)
			if res.Events == 0 {
				t.Errorf("%s: empty trace", name)
			}
			if len(res.Done) != len(want) {
				t.Errorf("%s: %d processes completed, want %d", name, len(res.Done), len(want))
				continue
			}
			for pi, w := range want {
				if res.Done[pi] != w {
					t.Errorf("%s: process %d finished %q, want %q (starvation or lost I/O)",
						name, pi, res.Done[pi], w)
				}
			}
			if idle := time.Duration(res.MaxIdleNS); idle > maxIdleWhileQueued {
				t.Errorf("%s: device idled %v while requests were queued (bound %v)",
					name, idle, maxIdleWhileQueued)
			}
		}
	}

	// Divergence across seeds, per scheduler: the random reader's pattern
	// must reach the trace, or "same seed, same hash" proves nothing.
	for i, s := range propSchedulers {
		hashes := make(map[string]bool)
		for j := 0; j < seeds; j++ {
			hashes[matrix[i][j].Hash] = true
		}
		if len(hashes) < 2 && seeds > 1 {
			t.Errorf("%s: all %d seeds produced the same trace hash; the seed is not reaching the workload",
				s.name, seeds)
		}
	}
}

// TestSchedulerSeedDeterminism reruns a slice of the matrix and demands
// byte-identical payloads: same seed, same scheduler, same trace hash —
// across independently constructed kernels on different goroutines.
func TestSchedulerSeedDeterminism(t *testing.T) {
	const rerunSeeds = 4
	first := runPropMatrix(t, rerunSeeds)
	second := runPropMatrix(t, rerunSeeds)
	for i, s := range propSchedulers {
		for j := 0; j < rerunSeeds; j++ {
			a, b := first[i][j], second[i][j]
			if a.Hash != b.Hash {
				t.Errorf("%s/seed%d: trace hash differs across identical runs: %s vs %s",
					s.name, j+1, a.Hash, b.Hash)
			}
			if a.Events != b.Events {
				t.Errorf("%s/seed%d: event count differs across identical runs: %d vs %d",
					s.name, j+1, a.Events, b.Events)
			}
		}
	}
}
