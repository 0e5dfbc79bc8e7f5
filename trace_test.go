// Integration tests for cross-layer tracing: a traced run yields spans from
// every layer linked by request ID, obeys the ordered-journaling invariant,
// and exports byte-for-byte identical traces across same-seed runs.
package splitio_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"splitio"
	"splitio/internal/schedtest"
	"splitio/internal/trace"
)

// tracedRun builds a machine with tracing on, runs a mixed workload
// (buffered writes, fsyncs, cold reads) for two virtual seconds, and
// returns the recorded events.
func tracedRun(t *testing.T, seed int64) []trace.Event {
	t.Helper()
	m := splitio.New(
		splitio.WithScheduler("cfq"),
		splitio.WithSeed(seed),
		splitio.WithRAMMB(64),
	)
	t.Cleanup(m.Close)
	tr := schedtest.EnableTrace(m.Kernel())

	logf := m.CreateContiguousFile("/log", 64<<20)
	data := m.CreateContiguousFile("/data", 256<<20)
	m.Spawn("appender", splitio.ProcOpts{}, func(tk *splitio.Task) {
		off := int64(0)
		for {
			for i := 0; i < 8; i++ {
				tk.Write(logf, off%(64<<20), 64<<10)
				off += 64 << 10
			}
			tk.Fsync(logf)
		}
	})
	m.Spawn("scanner", splitio.ProcOpts{}, func(tk *splitio.Task) {
		for {
			// Seeded random offsets: same-seed runs repeat the exact access
			// stream, different seeds diverge (the determinism test relies
			// on both).
			off := tk.Rand63n(256<<20-1<<20) &^ 4095
			tk.Read(data, off, 1<<20)
		}
	})
	m.Run(2 * time.Second)
	return tr.Events
}

func TestTraceCoversAllLayersLinkedByRequest(t *testing.T) {
	events := tracedRun(t, 1)
	if len(events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	schedtest.AssertLayerSpans(t, events,
		trace.LayerSyscall, trace.LayerCache, trace.LayerFS, trace.LayerBlock, trace.LayerDevice)

	// One fsync request must fan out through fs, block, and device; one
	// write request must show its cache-layer dirtying. Together the five
	// layers are linked by request IDs.
	var fsyncLinked, writeDirty bool
	for _, evs := range schedtest.RequestTree(events) {
		layers := make(map[trace.Layer]bool)
		root := ""
		for _, e := range evs {
			layers[e.Layer] = true
			if e.Layer == trace.LayerSyscall {
				root = e.Op
			}
		}
		if root == trace.OpFsync && layers[trace.LayerFS] && layers[trace.LayerBlock] && layers[trace.LayerDevice] {
			fsyncLinked = true
		}
		if root == trace.OpWrite && layers[trace.LayerCache] {
			writeDirty = true
		}
	}
	if !fsyncLinked {
		t.Error("no fsync request links syscall->fs->block->device spans")
	}
	if !writeDirty {
		t.Error("no write request links syscall->cache spans")
	}
}

func TestTraceOrderedCommitInvariant(t *testing.T) {
	events := tracedRun(t, 1)
	checked := schedtest.AssertOrderedCommits(t, events)
	if checked == 0 {
		t.Fatal("no journal commits found to check (workload should commit)")
	}
}

func TestTraceGoldenDeterminism(t *testing.T) {
	export := func(seed int64) []byte {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tracedRun(t, seed)); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes()
	}
	a := export(1)
	b := export(1)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed runs exported different traces")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exported trace is empty")
	}
	if c := export(2); bytes.Equal(a, c) {
		t.Error("different seeds produced identical traces (suspicious)")
	}
}

func TestUntracedRunRecordsNothing(t *testing.T) {
	m := splitio.New(splitio.WithScheduler("noop"), splitio.WithSeed(1))
	defer m.Close()
	col := &schedtest.Collector{}
	m.Kernel().Trace.Attach(col)
	f := m.CreateContiguousFile("/f", 1<<20)
	m.Spawn("w", splitio.ProcOpts{}, func(tk *splitio.Task) {
		for {
			tk.Write(f, 0, 4096)
			tk.Fsync(f)
		}
	})
	m.Run(200 * time.Millisecond)
	if n := len(col.Events); n != 0 {
		t.Fatalf("disabled tracer recorded %d events", n)
	}
}
