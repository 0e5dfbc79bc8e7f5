// Report: the serializable form of a run's attribution — per-scheduler
// blame tables, inversion counters, and sample inversions — rendered as
// text for reading and JSON for archiving (the CI artifact).

package attr

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Report is one run's attribution across a set of schedulers, ready for
// text rendering or JSON archiving.
type Report struct {
	Seed       int64         `json:"seed"`
	Scale      float64       `json:"scale"`
	Workload   string        `json:"workload"`
	Schedulers []SchedReport `json:"schedulers"`
}

// SchedReport is the attribution of one scheduler's run.
type SchedReport struct {
	Scheduler       string            `json:"scheduler"`
	Requests        int64             `json:"requests"`
	Groups          []GroupSummary    `json:"groups"`
	InversionCounts []KindCount       `json:"inversion_counts"`
	Samples         []InversionSample `json:"samples,omitempty"`
}

// GroupSummary is the blame-table row of one (pid, op) request group.
type GroupSummary struct {
	PID   int    `json:"pid"`
	Op    string `json:"op"`
	Count int64  `json:"count"`

	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`

	// Mean* decompose the mean request latency by category.
	MeanTotal    time.Duration `json:"mean_total_ns"`
	MeanThrottle time.Duration `json:"mean_throttle_ns"`
	MeanJournal  time.Duration `json:"mean_journal_ns"`
	MeanQueue    time.Duration `json:"mean_queue_ns"`
	MeanDevice   time.Duration `json:"mean_device_ns"`
	MeanOther    time.Duration `json:"mean_other_ns"`
}

// KindCount is one inversion kind's tally.
type KindCount struct {
	Kind    string `json:"kind"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// InversionSample is one retained inversion record, JSON-flattened.
type InversionSample struct {
	Kind    string `json:"kind"`
	Victim  int    `json:"victim"`
	Culprit int    `json:"culprit"`
	Layer   string `json:"layer"`
	DurNS   int64  `json:"dur_ns"`
	AtNS    int64  `json:"at_ns"`
	Txn     int64  `json:"txn,omitempty"`
	Req     uint64 `json:"req,omitempty"`
}

// maxSamplesPerSched bounds the sample list in reports; counters stay exact.
const maxSamplesPerSched = 10

// Summary snapshots this attribution as one scheduler's report section.
func (a *Attribution) Summary(scheduler string) SchedReport {
	sr := SchedReport{Scheduler: scheduler, Requests: a.requests}
	keys := append([]groupKey(nil), a.groupOrder...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].op < keys[j].op
	})
	for _, key := range keys {
		g := a.groups[key]
		qs := g.total.Quantiles([]float64{50, 95, 99})
		n := time.Duration(g.n)
		sr.Groups = append(sr.Groups, GroupSummary{
			PID: int(key.pid), Op: key.op, Count: g.n,
			P50: qs[0], P95: qs[1], P99: qs[2],
			MeanTotal:    g.sum[CatTotal] / n,
			MeanThrottle: g.sum[CatThrottle] / n,
			MeanJournal:  g.sum[CatJournal] / n,
			MeanQueue:    g.sum[CatQueue] / n,
			MeanDevice:   g.sum[CatDevice] / n,
			MeanOther:    g.sum[CatOther] / n,
		})
	}
	for _, k := range Kinds() {
		sr.InversionCounts = append(sr.InversionCounts, KindCount{
			Kind: k.String(), Count: a.kindCount[k], TotalNS: int64(a.kindDur[k]),
		})
	}
	for i, inv := range a.inversions {
		if i >= maxSamplesPerSched {
			break
		}
		sr.Samples = append(sr.Samples, InversionSample{
			Kind: inv.Kind.String(), Victim: int(inv.Victim), Culprit: int(inv.Culprit),
			Layer: inv.Layer.String(), DurNS: int64(inv.Dur), AtNS: int64(inv.At),
			Txn: inv.Txn, Req: uint64(inv.Req),
		})
	}
	return sr
}

// reportDur renders durations compactly for the text tables, rounding to
// keep columns readable without hiding sub-millisecond values.
func reportDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// WriteGroups renders a blame table: a header, then one row per (pid, op)
// group with its request count, total-latency quantiles and the mean time
// per category.
func WriteGroups(w io.Writer, groups []GroupSummary) {
	fmt.Fprintf(w, "%5s  %-6s  %6s  %10s  %10s  %10s  |  %10s %10s %10s %10s %10s\n",
		"pid", "op", "count", "p50", "p95", "p99",
		"throttle", "journal", "queue", "device", "other")
	for _, g := range groups {
		fmt.Fprintf(w, "%5d  %-6s  %6d  %10s  %10s  %10s  |  %10s %10s %10s %10s %10s\n",
			g.PID, g.Op, g.Count,
			reportDur(g.P50), reportDur(g.P95), reportDur(g.P99),
			reportDur(g.MeanThrottle), reportDur(g.MeanJournal),
			reportDur(g.MeanQueue), reportDur(g.MeanDevice), reportDur(g.MeanOther))
	}
}

// WriteText renders the report as human-readable blame tables.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "latency attribution report  seed=%d scale=%g workload=%s\n",
		r.Seed, r.Scale, r.Workload)
	for i := range r.Schedulers {
		sr := &r.Schedulers[i]
		fmt.Fprintf(w, "\n=== %s  (%d requests) ===\n", sr.Scheduler, sr.Requests)
		WriteGroups(w, sr.Groups)
		fmt.Fprintf(w, "inversions:")
		total := int64(0)
		for _, kc := range sr.InversionCounts {
			total += kc.Count
			fmt.Fprintf(w, "  %s=%d (%s)", kc.Kind, kc.Count, reportDur(time.Duration(kc.TotalNS)))
		}
		fmt.Fprintf(w, "  total=%d\n", total)
		for _, s := range sr.Samples {
			fmt.Fprintf(w, "  inversion %-20s  victim=%d culprit=%d layer=%s dur=%s txn=%d\n",
				s.Kind, s.Victim, s.Culprit, s.Layer, reportDur(time.Duration(s.DurNS)), s.Txn)
		}
	}
}

// WriteJSON renders the report as indented JSON (the `splitbench report
// -format json` / CI artifact form).
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
