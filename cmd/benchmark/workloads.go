package main

import "splitio/internal/exp"

// Every workload runs at this fixed configuration: one scale for all
// experiments, cells serially on one sweep worker, no result cache.
const (
	benchScale = 0.1
	benchJobs  = 1
)

// A workload is a benchmark input: experiments run in order in one process.
type workload struct {
	name string
	ids  []string
}

// workloads are the benchmark's inputs. Each is a batch, closed loop: one
// experiment at a time, cells serially, in a fresh process. Together they
// cover exp.All once each, so their wall times add up to regenerating the
// whole paper. README.md records the layer shares behind each choice.
var workloads = []workload{
	// Write-dirty and cause-tag path (MarkDirty on the mem-overwrite
	// panel); the read path is bypassed.
	{"fig11", []string{"fig11"}},
	// Eight HDFS machines on one clock: write-dirty plus writeback, the
	// split-token scheduler, and the only large heap.
	{"fig21", []string{"fig21"}},
	// 54 fault-injected cells: the flush path without cause tags, and a
	// new kernel per cell.
	{"crashsweep", []string{"crashsweep"}},
	// Everything else: the read path, the sim core and the workload
	// models. A write-path change should leave it flat.
	{"paper-rest", []string{
		"fig1", "fig3", "fig5", "fig6", "fig9", "fig10", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"table1", "table2", "table3", "inversion", "gcsweep", "slo",
		"abl-prompt", "abl-xfsfull", "abl-cowgc",
	}},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// workloadExperiments resolves a workload name to its experiments.
func workloadExperiments(name string) ([]exp.Experiment, bool) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		exps := make([]exp.Experiment, len(w.ids))
		for i, id := range w.ids {
			e, ok := exp.ByID(id)
			if !ok {
				return nil, false
			}
			exps[i] = e
		}
		return exps, true
	}
	return nil, false
}

// uncovered lists the exp.All entries no workload runs. A new experiment
// shows up here until a workload takes it.
func uncovered() []string {
	covered := map[string]bool{}
	for _, w := range workloads {
		for _, id := range w.ids {
			covered[id] = true
		}
	}
	var out []string
	for _, e := range exp.All {
		if !covered[e.ID] {
			out = append(out, e.ID)
		}
	}
	return out
}
