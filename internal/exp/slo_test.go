package exp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"splitio/internal/sweep"
)

// TestSLOExpGate pins the acceptance claim end to end: on the entangled
// workload, the monitor detects CFQ's windowed-p99 breach at a
// deterministic virtual timestamp and trips a flight-recorder bundle,
// while split-AFQ on the same seed stays breach-free — so the experiment
// reports zero violations.
func TestSLOExpGate(t *testing.T) {
	tab := SLOExp(Options{Scale: 0.1, Seed: 1})
	if v := tab.Metrics["violations_total"]; v != 0 {
		t.Fatalf("violations_total = %v, want 0", v)
	}
	if tab.Metrics["cfq_breaches"] == 0 {
		t.Error("cfq never breached the SLO (detector lost the entanglement)")
	}
	if n := tab.Metrics["afq_breaches"]; n != 0 {
		t.Errorf("afq breached %v times, want 0", n)
	}
	// The first breach lands exactly at the first window close: virtual
	// time, so the timestamp is a constant of (seed, scale), not of the
	// host.
	if got := time.Duration(tab.Metrics["cfq_first_breach_ns"]); got != SLOWindow {
		t.Errorf("cfq first breach at %v, want the first window close (%v)", got, SLOWindow)
	}
	// CFQ's breach must come with a flight-recorder bundle (the "bundle"
	// column of its row is not the "-" placeholder).
	if len(tab.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(tab.Rows))
	}
	if cfqBundle := tab.Rows[0][6]; cfqBundle == "-" {
		t.Error("cfq breach produced no flight-recorder bundle")
	}
	if afqBundle := tab.Rows[1][6]; afqBundle != "-" {
		t.Errorf("afq tripped a bundle %q, want none", afqBundle)
	}
}

// TestSLOExpByteIdenticalAcrossWorkers: the experiment's result — breach
// timestamps and bundle fingerprints included — is byte-identical whether
// its cells run inline or race across eight workers.
func TestSLOExpByteIdenticalAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		tab := SLOExp(Options{Scale: 0.1, Seed: 1, Runner: &sweep.Runner{Workers: workers}})
		b, err := json.Marshal(struct {
			Rows    [][]string
			Metrics map[string]float64
		}{tab.Rows, tab.Metrics})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	j1, j8 := marshal(1), marshal(8)
	if !bytes.Equal(j1, j8) {
		t.Errorf("slo result differs across -j:\n-j 1: %s\n-j 8: %s", j1, j8)
	}
}

// TestAllSchedulersIntrospect: every registered scheduler publishes its
// state as at least one sched.* gauge on its kernel's registry when
// attached.
func TestAllSchedulersIntrospect(t *testing.T) {
	for _, name := range SchedulerNames() {
		k := newKernel(name, Options{Seed: 1}, nil)
		n := 0
		k.Metrics.Visit(func(g string, _ float64) {
			if strings.HasPrefix(g, "sched.") {
				n++
			}
		})
		if n == 0 {
			t.Errorf("%s: publishes no sched.* gauge", name)
		}
		k.Env.Close()
	}
}

// TestMonitorEntangledCollects: the splitbench-monitor engine registers
// each machine in the collector, and each monitor tick samples the
// scheduler, block dispatcher and (on the FTL device) FTL gauges.
func TestMonitorEntangledCollects(t *testing.T) {
	o := Options{Scale: 0.1, Seed: 1, Device: "ftlssd",
		Monitor: &MonitorCollector{Window: SLOWindow}}
	mon := MonitorEntangled(o, []string{"cfq"})[0]
	if mon == nil {
		t.Fatal("no monitor attached")
	}
	if len(o.Monitor.Machines) != 1 || o.Monitor.Machines[0].Mon != mon {
		t.Fatalf("collector has %d machines", len(o.Monitor.Machines))
	}
	if mon.Ticks() == 0 {
		t.Error("monitor never ticked")
	}
	for _, name := range []string{"sched.queued_be", "block.queue_depth", "ssd.gc_runs"} {
		if _, ok := mon.Last(name); !ok {
			t.Errorf("last sample has no %s", name)
		}
	}
	if len(mon.Counters()) == 0 {
		t.Error("no counter samples for the Chrome export")
	}
}
