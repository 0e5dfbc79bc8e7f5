// Schedule goldens at experiment granularity: fig11, inversion, and
// crashsweep run end to end and everything observable — the rendered
// table, the cross-layer trace hash, the attribution report, and the
// sampled metrics dump — is digested and compared with the committed
// testdata/schedule_goldens.txt. The schedtest property matrix pins the
// schedule on a controlled workload; this pins it on the paper's real
// experiment cells, with writeback, journal commits, COW GC, fault
// injection, and the full scheduler set in play.

package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"splitio/internal/attr"
	"splitio/internal/schedtest"
	"splitio/internal/trace"
)

// goldenScale keeps the runs affordable: windows shrink but every code
// path (ordered flushes, commit barriers, crash cuts) still executes many
// times over. Each scale has its own golden lines.
func goldenScale() float64 {
	if testing.Short() {
		return 0.05
	}
	return 0.15
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenPayload executes experiment id with a tail sink, an online
// attribution sink, and a stats collector attached, and returns the
// digests of everything the run exposes. The metrics dump leaves out
// sim.switches: process handoffs are a cost of how blocking code is
// bridged onto the event loop, not part of the schedule.
func goldenPayload(t *testing.T, id string) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	tr := trace.New()
	// The tail keeps the newest 1<<16 events of the stream: hashing them
	// pins the schedule in bounded memory.
	tail := &schedtest.Tail{N: 1 << 16}
	tr.Attach(tail)
	tr.Enable()
	sink := attr.New()
	tr.Attach(sink)
	defer tr.Detach(sink)
	sc := &StatsCollector{Interval: 250 * time.Millisecond}
	tab := e.Run(Options{Scale: goldenScale(), Seed: 1, Tracer: tr, Metrics: sc})
	table, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("%s: marshal table: %v", id, err)
	}
	report, err := json.Marshal(sink.Summary(id))
	if err != nil {
		t.Fatalf("%s: marshal attr report: %v", id, err)
	}
	var md strings.Builder
	for _, m := range sc.Machines {
		fmt.Fprintf(&md, "== %s\n%s", m.Label, schedtest.MetricsDump(m.Registry, "sim.switches"))
	}
	return fmt.Sprintf("table=%s trace=%s attr=%s metrics=%s",
		digest(table), schedtest.TraceHash(tail.Events()), digest(report), digest([]byte(md.String())))
}

// TestScheduleGoldens checks each experiment's payload digests against the
// committed goldens. Table JSON covers every cell result (fig11 throughput
// shares, inversion counts, crashsweep replay verdicts); the trace hash
// covers the virtual-time schedule itself; the attr report and metrics
// dump cover the derived observability planes.
func TestScheduleGoldens(t *testing.T) {
	goldens := schedtest.LoadGoldens(t, "testdata/schedule_goldens.txt")
	for _, id := range []string{"fig11", "inversion", "crashsweep"} {
		id := id
		t.Run(id, func(t *testing.T) {
			goldens.Check(t, fmt.Sprintf("%s/scale=%g", id, goldenScale()), goldenPayload(t, id))
		})
	}
}
