package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"splitio/internal/exp"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/sweep"
)

// repResult is what one child process reports: one rep of a workload.
type repResult struct {
	WallNS      int64       `json:"wall_ns"`
	Cells       int64       `json:"cells"`
	Experiments []expResult `json:"experiments"`
	Trace       *traceStats `json:"trace,omitempty"`
}

// expResult is one experiment's outcome. Error is set when it panicked or
// reported invariant violations; Digest is empty after a panic.
type expResult struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	Error  string `json:"error,omitempty"`
}

// traceStats is a profiled rep's per-layer host cost and exact counters.
type traceStats struct {
	LayerNS      map[string]int64 `json:"layer_ns"`
	Samples      int64            `json:"samples"`
	ProfileNS    int64            `json:"profile_ns"`
	Calls        map[string]int64 `json:"calls"`
	Sim          perf.SimStat     `json:"sim"`
	Mallocs      uint64           `json:"mallocs"`
	AllocBytes   uint64           `json:"alloc_bytes"`
	PeakLiveHeap uint64           `json:"peak_live_heap"`
	GCCycles     uint64           `json:"gc_cycles"`
	GCCPUSeconds float64          `json:"gc_cpu_s"`
}

// runRep runs exps serially at the benchmark configuration on a fresh
// uncached runner, with a CPU profile and the perf probes when traced.
// ready is called once everything is set up, just before the first Run.
func runRep(exps []exp.Experiment, seed int64, traced bool, ready func()) (*repResult, error) {
	runner := &sweep.Runner{Workers: benchJobs}
	opts := exp.Options{Scale: benchScale, Seed: seed, Runner: runner}
	res := &repResult{}
	ready()

	var tr *tracer
	if traced {
		var err error
		if tr, err = startTrace(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for _, e := range exps {
		res.Experiments = append(res.Experiments, runExperiment(e, opts))
	}
	res.WallNS = int64(time.Since(start))
	if tr != nil {
		st, err := tr.finish()
		if err != nil {
			return nil, err
		}
		res.Trace = st
	}
	res.Cells, _, _ = runner.Stats()
	return res, nil
}

// runExperiment runs one experiment, turning a panic or a nonzero
// violations_total into a failed result.
func runExperiment(e exp.Experiment, opts exp.Options) (r expResult) {
	r.ID = e.ID
	defer func() {
		if p := recover(); p != nil {
			r.Digest = ""
			r.Error = fmt.Sprintf("panic: %v", p)
		}
	}()
	t := e.Run(opts)
	r.Digest = digest(t)
	if v := t.Metrics["violations_total"]; v > 0 {
		r.Error = fmt.Sprintf("violations_total = %g", v)
	}
	return r
}

// digest hashes everything an experiment outputs: ID, title, header, rows,
// notes, series and the metrics in key order.
func digest(t *exp.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %q %q\n", t.ID, t.Title, t.Header)
	for _, row := range t.Rows {
		fmt.Fprintf(h, "%q\n", row)
	}
	fmt.Fprintf(h, "%q\n", t.Notes)
	for _, s := range t.Series {
		fmt.Fprintf(h, "%q %d %v\n", s.Label, s.Step, s.Values)
	}
	keys := make([]string, 0, len(t.Metrics))
	for k := range t.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%q=%v\n", k, t.Metrics[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// tracer brackets a traced rep: the CPU profile, the perf probe counters
// (counted, never clock-sampled), and a live-heap sampler.
type tracer struct {
	prof     bytes.Buffer
	before   perf.Snapshot
	rtBefore runtimeStats
	stop     chan struct{}
	done     chan struct{}
	peakLive uint64
}

// liveHeapEvery is how often the sampler reads the live heap, which only
// changes at the end of a GC cycle.
const liveHeapEvery = 10 * time.Millisecond

type runtimeStats struct {
	gcCPUSeconds       float64
	gcCycles, liveHeap uint64
}

func readRuntimeStats() runtimeStats {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	rtmetrics.Read(s)
	return runtimeStats{s[0].Value.Float64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func startTrace() (*tracer, error) {
	perf.SetSampleEvery(math.MaxInt64)
	perf.Enable()
	sim.StatsHook = perf.ObserveSim
	runtime.GC()
	t := &tracer{stop: make(chan struct{}), done: make(chan struct{})}
	t.before = perf.TakeSnapshot()
	t.rtBefore = readRuntimeStats()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(liveHeapEvery)
		defer tick.Stop()
		for {
			t.peakLive = max(t.peakLive, readRuntimeStats().liveHeap)
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		t.halt()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return t, nil
}

// halt stops the probes and the sampler and waits for it to exit.
func (t *tracer) halt() {
	close(t.stop)
	<-t.done
	perf.Disable()
	sim.StatsHook = nil
}

func (t *tracer) finish() (*traceStats, error) {
	pprof.StopCPUProfile()
	d := perf.Delta(t.before, perf.TakeSnapshot())
	rt := readRuntimeStats()
	t.halt()

	p, err := parseCPUProfile(t.prof.Bytes())
	if err != nil {
		return nil, err
	}
	st := &traceStats{
		Calls:        map[string]int64{},
		Sim:          d.Sim,
		Mallocs:      d.Mem.Mallocs,
		AllocBytes:   d.Mem.TotalAlloc,
		PeakLiveHeap: t.peakLive,
		GCCycles:     rt.gcCycles - t.rtBefore.gcCycles,
		GCCPUSeconds: rt.gcCPUSeconds - t.rtBefore.gcCPUSeconds,
	}
	st.LayerNS, st.Samples, st.ProfileNS = layerNS(p)
	for _, b := range perf.Buckets() {
		st.Calls[b.String()] = d.Buckets[b].Calls
	}
	return st, nil
}
