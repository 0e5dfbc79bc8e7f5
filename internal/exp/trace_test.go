package exp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"splitio/internal/schedtest"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// TestFig12Traced mirrors `splitbench -trace out.json -stats fig12`: the run
// must record spans from all five layers, link one syscall's fan-out by
// request ID, export valid Chrome JSON, and collect per-machine registries.
func TestFig12Traced(t *testing.T) {
	tr := trace.New()
	col := &schedtest.Collector{}
	tr.Attach(col)
	tr.Enable()
	sc := &StatsCollector{}
	e, _ := ByID("fig12")
	tab := e.Run(Options{Scale: 0.05, Seed: 1, Tracer: tr, Metrics: sc})
	if len(tab.Rows) == 0 {
		t.Fatal("fig12 produced no rows")
	}

	events := col.Events
	seen := make(map[trace.Layer]int)
	for _, ev := range events {
		seen[ev.Layer]++
	}
	for _, l := range trace.Layers() {
		if seen[l] == 0 {
			t.Errorf("fig12 trace has no %s-layer spans", l)
		}
	}

	linked := false
	for _, evs := range trace.ByReq(events) {
		layers := make(map[trace.Layer]bool)
		hasSyscall := false
		for _, ev := range evs {
			layers[ev.Layer] = true
			hasSyscall = hasSyscall || ev.Layer == trace.LayerSyscall
		}
		if hasSyscall && layers[trace.LayerBlock] && layers[trace.LayerDevice] {
			linked = true
			break
		}
	}
	if !linked {
		t.Error("no request links a syscall span to block and device spans")
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}

	if len(sc.Machines) == 0 {
		t.Fatal("stats collector saw no machines")
	}
	for _, m := range sc.Machines {
		if m.Label == "" || m.Registry == nil {
			t.Fatalf("bad machine stats entry %+v", m)
		}
		if len(m.Registry.Names()) == 0 {
			t.Fatalf("machine %s registry has no gauges", m.Label)
		}
	}
}

// TestFig21Observed: fig21 builds its HDFS workers from hdfssim's options,
// not through newKernel, and must still honor -trace, -stats and -slo: the
// shared tracer records the workers' events and every worker reaches both
// collectors.
func TestFig21Observed(t *testing.T) {
	tr := trace.New()
	col := &schedtest.Collector{}
	tr.Attach(col)
	tr.Enable()
	sc := &StatsCollector{}
	mc := &MonitorCollector{Window: SLOWindow}
	env := sim.NewEnv(1)
	defer env.Close()
	c := fig21Cluster(Options{Seed: 1, Tracer: tr, Metrics: sc, Monitor: mc}, env, 16, 8)
	cl := c.NewClient("t0", "throttled")
	env.Go("t-client", func(p *sim.Proc) { cl.WriteLoop(p) })
	env.Run(env.Now().Add(200 * time.Millisecond))
	if len(col.Events) == 0 {
		t.Fatal("traced fig21 cluster recorded no events")
	}
	n := len(c.Workers())
	if len(sc.Machines) != n || len(mc.Machines) != n {
		t.Fatalf("collected %d stats and %d monitor machines, want %d each", len(sc.Machines), len(mc.Machines), n)
	}
	if got := sc.Machines[0].Label; got != "split-token#0" {
		t.Errorf("first machine label %q, want split-token#0", got)
	}
}
