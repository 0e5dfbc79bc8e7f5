package exp

import (
	"testing"

	"splitio/internal/attr"
	"splitio/internal/monitor"
)

// TestInversionReportCFQvsAFQ pins the paper's isolation claim end to end:
// on the entangled workload, the detector flags journal-commit
// entanglement under CFQ (and the noop baseline) while split-AFQ shows
// zero inversions of any kind.
func TestInversionReportCFQvsAFQ(t *testing.T) {
	rep := BuildReport(Options{Scale: 0.2, Seed: 1}, []string{"cfq", "afq"})
	if rep.Workload == "" || len(rep.Schedulers) != 2 {
		t.Fatalf("malformed report: %+v", rep)
	}
	bySched := map[string]map[string]int64{}
	for _, sr := range rep.Schedulers {
		if sr.Requests == 0 {
			t.Fatalf("%s: no requests attributed", sr.Scheduler)
		}
		counts := map[string]int64{}
		for _, kc := range sr.InversionCounts {
			counts[kc.Kind] = kc.Count
		}
		bySched[sr.Scheduler] = counts
	}
	if n := bySched["cfq"][attr.KindTxnCommit.String()]; n == 0 {
		t.Errorf("CFQ shows no journal-commit entanglement; want > 0")
	}
	for kind, n := range bySched["afq"] {
		if n != 0 {
			t.Errorf("AFQ shows %d %s inversions; want 0", n, kind)
		}
	}
}

// TestIdleWriterIsolated: every scheduler IsolatesIdleWriter names, run
// on the entangled workload under the acceptance SLO, shows no inversion
// and no breach, the two things `splitbench report` gates on.
func TestIdleWriterIsolated(t *testing.T) {
	var names []string
	for _, s := range SchedulerNames() {
		if IsolatesIdleWriter(s) {
			names = append(names, s)
		}
	}
	if len(names) != len(isolatesIdleWriter) {
		t.Fatalf("gate set %v names unknown schedulers (known: %v)", isolatesIdleWriter, SchedulerNames())
	}
	rule, err := monitor.ParseRule(SLORuleSpec)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Scale: 0.1, Seed: 1, Monitor: &MonitorCollector{Rules: []monitor.Rule{rule}}}
	rep := BuildReport(o, names)
	for i, sr := range rep.Schedulers {
		for _, kc := range sr.InversionCounts {
			if kc.Count != 0 {
				t.Errorf("%s shows %d %s inversions; want 0", sr.Scheduler, kc.Count, kc.Kind)
			}
		}
		if bs := o.Monitor.Machines[i].Mon.Breaches(); len(bs) != 0 {
			t.Errorf("%s breached %s %d times; want 0", sr.Scheduler, SLORuleSpec, len(bs))
		}
	}
}

// TestInversionExperimentGates: the experiment wires split-scheduler
// inversions into violations_total so splitbench fails the run, and a
// healthy stack reports zero.
func TestInversionExperimentGates(t *testing.T) {
	tab := InversionExp(Options{Scale: 0.2, Seed: 1})
	if tab.Metrics["violations_total"] != 0 {
		t.Fatalf("violations_total = %v, want 0 (split scheduler inverted)",
			tab.Metrics["violations_total"])
	}
	if tab.Metrics["cfq_inversions"] == 0 {
		t.Fatalf("cfq_inversions = 0, want > 0 (detector lost the entanglement)")
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("table has %d rows, want 3", len(tab.Rows))
	}
}
