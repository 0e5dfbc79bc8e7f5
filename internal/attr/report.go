// Report: the serializable form of a run's attribution — per-scheduler
// blame tables, inversion counters, and sample inversions — rendered as
// text for reading, JSON for archiving (the CI artifact), and diffed
// between two runs to spot regressions.

package attr

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Report is one run's attribution across a set of schedulers, ready for
// text rendering, JSON archiving, or diffing against another run.
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

// ReadReport parses a JSON report written by WriteJSON. A document that
// decodes but carries none of a report's identifying fields (an empty
// object, or unrelated JSON whose fields all go unmatched) is rejected:
// silently diffing such a husk would report every scheduler as vanished.
// Deeper shape problems are rejected field-by-field (see validate), so the
// error names exactly what is malformed and in which scheduler section.
func ReadReport(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("not a report archive: %w", err)
	}
	if rep.Workload == "" && len(rep.Schedulers) == 0 {
		return nil, fmt.Errorf("not a report archive: missing workload and schedulers fields")
	}
	if err := rep.validate(); err != nil {
		return nil, fmt.Errorf("not a report archive: %w", err)
	}
	return &rep, nil
}

// validate checks the identity fields diffing keys on — scheduler names and
// each blame group's per-ioctx identity (pid, op) — so a malformed archive
// fails naming the offending field instead of silently matching nothing in
// the diff.
func (r *Report) validate() error {
	seen := make(map[string]int)
	for i := range r.Schedulers {
		sr := &r.Schedulers[i]
		if sr.Scheduler == "" {
			return fmt.Errorf("schedulers[%d]: missing %q field", i, "scheduler")
		}
		if prev, dup := seen[sr.Scheduler]; dup {
			return fmt.Errorf("schedulers[%d]: duplicate scheduler %q (also schedulers[%d]); diff keys on the name",
				i, sr.Scheduler, prev)
		}
		seen[sr.Scheduler] = i
		for j, g := range sr.Groups {
			where := fmt.Sprintf("schedulers[%d] (%s): groups[%d]", i, sr.Scheduler, j)
			if g.Op == "" {
				return fmt.Errorf("%s: missing %q field (per-ioctx identity is pid+op; got pid=%d)",
					where, "op", g.PID)
			}
			if g.PID < 0 {
				return fmt.Errorf("%s (op=%q): negative %q %d", where, g.Op, "pid", g.PID)
			}
			if g.Count <= 0 {
				return fmt.Errorf("%s (pid=%d op=%q): missing or non-positive %q",
					where, g.PID, g.Op, "count")
			}
		}
		for j, kc := range sr.InversionCounts {
			if kc.Kind == "" {
				return fmt.Errorf("schedulers[%d] (%s): inversion_counts[%d]: missing %q field",
					i, sr.Scheduler, j, "kind")
			}
		}
	}
	return nil
}

// totalInversions sums a section's kind counters.
func (sr *SchedReport) totalInversions() int64 {
	var n int64
	for _, kc := range sr.InversionCounts {
		n += kc.Count
	}
	return n
}

// WriteDiff renders what changed from old to new: per-scheduler request
// and inversion deltas plus p99 movement per request group, and any
// schedulers present on only one side.
func WriteDiff(w io.Writer, old, new *Report) {
	fmt.Fprintf(w, "report diff: old(seed=%d scale=%g) -> new(seed=%d scale=%g)\n",
		old.Seed, old.Scale, new.Seed, new.Scale)
	oldBy := make(map[string]*SchedReport)
	oldOrder := make([]string, 0, len(old.Schedulers))
	for i := range old.Schedulers {
		oldBy[old.Schedulers[i].Scheduler] = &old.Schedulers[i]
		oldOrder = append(oldOrder, old.Schedulers[i].Scheduler)
	}
	seen := make(map[string]bool)
	for i := range new.Schedulers {
		ns := &new.Schedulers[i]
		seen[ns.Scheduler] = true
		os, ok := oldBy[ns.Scheduler]
		if !ok {
			fmt.Fprintf(w, "\n+++ %s (only in new run)\n", ns.Scheduler)
			continue
		}
		fmt.Fprintf(w, "\n=== %s ===\n", ns.Scheduler)
		fmt.Fprintf(w, "requests: %d -> %d (%+d)\n", os.Requests, ns.Requests, ns.Requests-os.Requests)
		oldKind := make(map[string]int64)
		for _, kc := range os.InversionCounts {
			oldKind[kc.Kind] = kc.Count
		}
		for _, kc := range ns.InversionCounts {
			if d := kc.Count - oldKind[kc.Kind]; d != 0 || kc.Count != 0 {
				fmt.Fprintf(w, "inversions %-20s: %d -> %d (%+d)\n",
					kc.Kind, oldKind[kc.Kind], kc.Count, d)
			}
		}
		fmt.Fprintf(w, "inversions total: %d -> %d (%+d)\n",
			os.totalInversions(), ns.totalInversions(), ns.totalInversions()-os.totalInversions())
		oldGroups := make(map[string]GroupSummary)
		for _, g := range os.Groups {
			oldGroups[fmt.Sprintf("%d/%s", g.PID, g.Op)] = g
		}
		for _, g := range ns.Groups {
			key := fmt.Sprintf("%d/%s", g.PID, g.Op)
			og, ok := oldGroups[key]
			if !ok {
				fmt.Fprintf(w, "group %-12s: new (p99=%s)\n", key, reportDur(g.P99))
				continue
			}
			if og.P99 != g.P99 {
				fmt.Fprintf(w, "group %-12s: p99 %s -> %s (%+s)\n",
					key, reportDur(og.P99), reportDur(g.P99), reportDur(g.P99-og.P99))
			}
		}
	}
	for _, name := range oldOrder {
		if !seen[name] {
			fmt.Fprintf(w, "\n--- %s (only in old run)\n", name)
		}
	}
}
