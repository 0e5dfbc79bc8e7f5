// SLO experiment: the monitor's acceptance gate. The entangled antagonist
// pair (paced fsync appender vs idle bulk writer, the inversion workload)
// runs under CFQ and under split-AFQ with a windowed p99 SLO on the
// appender's fsyncs. Block-level CFQ entangles the appender with the
// writer's dirty data, so the monitor detects a breach at a deterministic
// virtual timestamp and the flight recorder dumps a post-mortem bundle;
// AFQ holds the writer at the memory level and stays breach-free on the
// same seed. Either scheduler failing its side is a violation
// (Metrics["violations_total"]), wiring the claim into `make check`.

package exp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"time"

	"splitio/internal/core"
	"splitio/internal/monitor"
)

// SLORuleSpec is the acceptance SLO: the appender (first user process, PID
// 100) must keep windowed fsync p99 under the bound. The threshold sits
// between AFQ's worst window (~38ms p99: a journal commit with the idle
// writer held at the memory level) and CFQ's entangled windows (~370-400ms
// p99: the commit drags the idle writer's burst through the ordered-mode
// flush), measured on seed 1 at both -scale 0.1 and 1.
const SLORuleSpec = "pid=100 op=fsync p99<250ms"

// SLOWindow is the tumbling evaluation window.
const SLOWindow = 500 * time.Millisecond

// sloSchedulers is the comparison pair: the block-level baseline that must
// breach, and the split scheduler that must not.
var sloSchedulers = []string{"cfq", "afq"}

type sloCell struct {
	Windows    int
	Breaches   int
	FirstNS    int64
	FirstKind  string
	FirstP99NS int64
	BundleLen  int
	BundleFNV  uint64
}

// runSLOCell runs the entangled workload under sched with a private
// in-cell monitor, so the experiment parallelizes across schedulers while
// every byte of the result — breach timestamps included — stays
// deterministic.
func runSLOCell(sched string, o Options) sloCell {
	rule, err := monitor.ParseRule(SLORuleSpec)
	if err != nil {
		panic("exp: bad SLO rule: " + err.Error())
	}
	m := monitorEntangled(o, sched, &monitor.Config{Window: SLOWindow, Rules: []monitor.Rule{rule}})
	c := sloCell{Windows: m.Ticks(), Breaches: len(m.Breaches())}
	if bs := m.Breaches(); len(bs) > 0 {
		c.FirstNS = int64(bs[0].At)
		c.FirstKind = bs[0].Kind
		c.FirstP99NS = int64(bs[0].Window.P99)
	}
	buf := bundleHasher{Hash64: fnv.New64a()}
	if err := m.WriteBundles(&buf); err != nil {
		panic("exp: bundle encode: " + err.Error())
	}
	if len(m.Dumps()) > 0 {
		c.BundleLen = buf.n
		c.BundleFNV = buf.Sum64()
	}
	return c
}

// MonitorEntangled runs the entangled antagonist workload under each of
// schedulers, one cell each, with the monitor o.Monitor configures, and
// returns the monitors in scheduler order (they are also appended to
// o.Monitor.Machines). This is the engine of `splitbench monitor`.
func MonitorEntangled(o Options, schedulers []string) []*monitor.Monitor {
	var cells []cell[*monitor.Monitor]
	for _, sched := range schedulers {
		cells = append(cells, cell[*monitor.Monitor]{"sched=" + sched,
			func() *monitor.Monitor { return monitorEntangled(o, sched, nil) }})
	}
	return runCells(o, "monitor", cells)
}

// monitorEntangled runs one machine of MonitorEntangled or of the slo
// experiment, monitored under cfg when non-nil, else under o.Monitor's
// configuration, and returns its monitor after teardown.
func monitorEntangled(o Options, sched string, cfg *monitor.Config) *monitor.Monitor {
	k := newKernel(sched, o, func(opt *core.Options) {
		if cfg != nil {
			opt.Monitor = cfg
		}
	})
	defer k.Env.Close()
	spawnEntangled(k, 64<<20, 1<<30)
	k.Run(o.dur(10 * time.Second))
	return k.Monitor
}

// bundleHasher hashes and counts the bundle stream without retaining it:
// cells return a fingerprint, and byte-identity across -j follows from
// fingerprint identity plus deterministic JSON field order.
type bundleHasher struct {
	hash.Hash64
	n int
}

func (b *bundleHasher) Write(p []byte) (int, error) {
	b.n += len(p)
	return b.Hash64.Write(p)
}

// SLOExp regenerates the SLO comparison as a table. The gate is two-sided:
// CFQ must breach (and dump a flight-recorder bundle) and AFQ must not;
// either side failing counts into Metrics["violations_total"].
func SLOExp(o Options) *Table {
	t := &Table{
		ID:     "slo",
		Title:  fmt.Sprintf("Windowed SLO detection (%s over %s; %s)", SLORuleSpec, SLOWindow, inversionWorkload),
		Header: []string{"scheduler", "windows", "breaches", "first breach", "kind", "window p99", "bundle"},
		Metrics: map[string]float64{
			"violations_total": 0,
		},
	}
	var cells []cell[sloCell]
	for _, sched := range sloSchedulers {
		cells = append(cells, cell[sloCell]{"sched=" + sched + " rule=" + SLORuleSpec, func() sloCell { return runSLOCell(sched, o) }})
	}
	res := runCells(o, "slo", cells)
	for i, c := range res {
		sched := sloSchedulers[i]
		first, kind, p99, bundle := "-", "-", "-", "-"
		if c.Breaches > 0 {
			first = ms(time.Duration(c.FirstNS)) + "ms"
			kind = c.FirstKind
			p99 = ms(time.Duration(c.FirstP99NS)) + "ms"
		}
		if c.BundleLen > 0 {
			bundle = fmt.Sprintf("%dB fnv=%016x", c.BundleLen, c.BundleFNV)
		}
		t.Rows = append(t.Rows, []string{
			sched, fmt.Sprintf("%d", c.Windows), fmt.Sprintf("%d", c.Breaches),
			first, kind, p99, bundle,
		})
		t.Metrics[sched+"_breaches"] = float64(c.Breaches)
		t.Metrics[sched+"_first_breach_ns"] = float64(c.FirstNS)
		if splitSchedulers[sched] {
			// A split scheduler breaching the SLO is a violation.
			t.Metrics["violations_total"] += float64(c.Breaches)
		} else {
			// The block-level baseline must exhibit the phenomenon: a breach
			// at a deterministic timestamp with a flight-recorder bundle.
			if c.Breaches == 0 || c.BundleLen == 0 {
				t.Metrics["violations_total"]++
			}
		}
	}
	t.Notes = "The monitor evaluates the rule at every window close (virtual time), so the first-breach\n" +
		"timestamp is deterministic and byte-identical at any -j. CFQ's breach trips the flight\n" +
		"recorder (bundle column); split-AFQ stays breach-free on the same seed."
	return t
}
