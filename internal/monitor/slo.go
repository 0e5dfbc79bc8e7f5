// SLO engine: windowed streaming quantiles over per-ioctx syscall
// latencies, evaluated against declarative rules on a virtual-time ticker.
//
// Latencies accumulate into metrics.Histogram's fixed-bin log histograms
// (8 sub-bins per power-of-two octave, ~12.5% resolution) — pure integer
// bin arithmetic, so the same event stream always yields the same quantiles
// and the same breach timestamps, regardless of host or parallelism.

package monitor

import (
	"fmt"
	"strings"
	"time"

	"splitio/internal/metrics"
	"splitio/internal/sim"
)

// Rule is one SLO: a latency-quantile bound, a throughput floor, or an
// error budget with a burn-rate limit, over one tumbling window. Zero PID /
// empty Op match every process / operation.
type Rule struct {
	// Name labels breaches; defaults to the spec string.
	Name string `json:"name"`
	// PID restricts the rule to one process (0 = all).
	PID int `json:"pid,omitempty"`
	// Op restricts the rule to one syscall op ("" = all).
	Op string `json:"op,omitempty"`
	// Quantile (e.g. 0.99) with MaxLatency states "q(latency) < MaxLatency
	// per window".
	Quantile   float64       `json:"quantile,omitempty"`
	MaxLatency time.Duration `json:"max_latency,omitempty"`
	// MinBps states a throughput floor (bytes/second of completed syscall
	// payload per window), evaluated once the first matching request has
	// been seen.
	MinBps float64 `json:"min_bps,omitempty"`
	// Budget is the allowed fraction of requests slower than MaxLatency;
	// setting it turns the rule into an error budget. Burn is the maximum
	// burn-rate multiplier (default 1): a window breaches when
	// badFraction > Budget*Burn.
	Budget float64 `json:"budget,omitempty"`
	Burn   float64 `json:"burn,omitempty"`
}

// ParseRule parses a compact whitespace-separated rule spec:
//
//	pid=100 op=fsync p99<10ms
//	op=write bps>=1048576
//	op=fsync p99<10ms budget=0.01 burn=2
//
// Latency terms are pNN<duration (p50, p95, p99, p999); throughput terms
// are bps>=N or bps>N. budget= adds an error-budget burn-rate rule on top
// of the latency bound.
func ParseRule(spec string) (Rule, error) {
	r := Rule{Name: spec, Burn: 1}
	for _, tok := range strings.Fields(spec) {
		switch {
		case strings.HasPrefix(tok, "pid="):
			if _, err := fmt.Sscanf(tok, "pid=%d", &r.PID); err != nil {
				return r, fmt.Errorf("monitor: bad pid token %q", tok)
			}
		case strings.HasPrefix(tok, "op="):
			r.Op = strings.TrimPrefix(tok, "op=")
		case strings.HasPrefix(tok, "budget="):
			if _, err := fmt.Sscanf(tok, "budget=%g", &r.Budget); err != nil {
				return r, fmt.Errorf("monitor: bad budget token %q", tok)
			}
		case strings.HasPrefix(tok, "burn="):
			if _, err := fmt.Sscanf(tok, "burn=%g", &r.Burn); err != nil {
				return r, fmt.Errorf("monitor: bad burn token %q", tok)
			}
		case strings.HasPrefix(tok, "bps>"):
			v := strings.TrimPrefix(strings.TrimPrefix(tok, "bps>"), "=")
			if _, err := fmt.Sscanf(v, "%g", &r.MinBps); err != nil {
				return r, fmt.Errorf("monitor: bad throughput token %q", tok)
			}
		case strings.HasPrefix(tok, "p"):
			lt := strings.IndexByte(tok, '<')
			if lt < 0 {
				return r, fmt.Errorf("monitor: latency token %q needs p<N><dur", tok)
			}
			q, err := parseQuantile(tok[:lt])
			if err != nil {
				return r, err
			}
			d, err := time.ParseDuration(tok[lt+1:])
			if err != nil {
				return r, fmt.Errorf("monitor: bad duration in %q: %v", tok, err)
			}
			r.Quantile, r.MaxLatency = q, d
		default:
			return r, fmt.Errorf("monitor: unknown rule token %q", tok)
		}
	}
	if r.Quantile == 0 && r.MinBps == 0 {
		return r, fmt.Errorf("monitor: rule %q has no latency or throughput term", spec)
	}
	if r.Budget > 0 && r.MaxLatency == 0 {
		return r, fmt.Errorf("monitor: rule %q sets a budget without a latency bound", spec)
	}
	return r, nil
}

func parseQuantile(s string) (float64, error) {
	switch s {
	case "p50":
		return 0.50, nil
	case "p90":
		return 0.90, nil
	case "p95":
		return 0.95, nil
	case "p99":
		return 0.99, nil
	case "p999":
		return 0.999, nil
	}
	return 0, fmt.Errorf("monitor: unknown quantile %q (p50/p90/p95/p99/p999)", s)
}

// sloKey identifies one ioctx stream: a (pid, syscall-op) pair.
type sloKey struct {
	PID int    `json:"pid"`
	Op  string `json:"op"`
}

func (k sloKey) less(o sloKey) bool {
	if k.PID != o.PID {
		return k.PID < o.PID
	}
	return k.Op < o.Op
}

// window accumulates one key's samples for the current tumbling window.
type window struct {
	h     metrics.Histogram
	bytes int64
	seen  bool // any sample ever (arms throughput floors)
}

// WindowStats is the offending window's breakdown attached to a breach.
type WindowStats struct {
	Count int64         `json:"count"`
	Bytes int64         `json:"bytes"`
	Bad   int64         `json:"bad,omitempty"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

func statsOf(h *metrics.Histogram, bytes, bad int64) WindowStats {
	return WindowStats{
		Count: int64(h.Count()),
		Bytes: bytes,
		Bad:   bad,
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Breach is one typed SLO violation: which rule, when (the end of the
// offending window, a deterministic virtual timestamp), what kind of bound
// broke, the observed value against the limit, and the window's breakdown.
type Breach struct {
	Rule   string      `json:"rule"`
	Kind   string      `json:"kind"` // "latency" | "throughput" | "burn-rate"
	At     sim.Time    `json:"at_ns"`
	Value  float64     `json:"value"`
	Limit  float64     `json:"limit"`
	Window WindowStats `json:"window"`
}

// evaluate checks every rule against the closing window [now-window, now)
// and returns breaches in rule order.
func (m *Monitor) evaluate(now sim.Time) []Breach {
	keys := m.sortedWindowKeys()
	var out []Breach
	for _, r := range m.cfg.Rules {
		var merged metrics.Histogram
		var bytes int64
		armed := false
		for _, k := range keys {
			if r.PID != 0 && r.PID != k.PID {
				continue
			}
			if r.Op != "" && r.Op != k.Op {
				continue
			}
			w := m.windows[k]
			merged.Merge(&w.h)
			bytes += w.bytes
			armed = armed || w.seen
		}
		if r.Quantile > 0 && merged.Count() > 0 {
			q := merged.Quantile(r.Quantile)
			if q > r.MaxLatency {
				out = append(out, Breach{
					Rule: r.Name, Kind: "latency", At: now,
					Value: float64(q), Limit: float64(r.MaxLatency),
					Window: statsOf(&merged, bytes, 0),
				})
			}
			if r.Budget > 0 {
				bad := merged.CountAbove(r.MaxLatency)
				burn := r.Burn
				if burn <= 0 {
					burn = 1
				}
				if frac := float64(bad) / float64(merged.Count()); frac > r.Budget*burn {
					out = append(out, Breach{
						Rule: r.Name, Kind: "burn-rate", At: now,
						Value: frac, Limit: r.Budget * burn,
						Window: statsOf(&merged, bytes, bad),
					})
				}
			}
		}
		if r.MinBps > 0 && armed {
			bps := float64(bytes) / m.cfg.Window.Seconds()
			if bps < r.MinBps {
				out = append(out, Breach{
					Rule: r.Name, Kind: "throughput", At: now,
					Value: bps, Limit: r.MinBps,
					Window: statsOf(&merged, bytes, 0),
				})
			}
		}
	}
	// Reset windows for the next interval; keep the armed flag.
	for _, k := range keys {
		w := m.windows[k]
		w.h = metrics.Histogram{}
		w.bytes = 0
	}
	return out
}
