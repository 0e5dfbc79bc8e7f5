// Package trace is the observability backbone of the simulated stack: a
// deterministic, zero-overhead-when-disabled stream of typed span events
// emitted at instrumentation points in every layer (syscall, cache, file
// system, block, device).
//
// The tracer keeps no events. Every consumer attaches as a Sink and reads
// the stream online: ChromeWriter streams the trace_event export, Rollup
// keeps the per-request state behind the latency tables, and attribution
// and the monitor fold events into their own bounded state. A traced run's
// memory therefore does not grow with the number of events.
//
// Spans carry virtual timestamps from the discrete-event simulation, so a
// recorded trace is byte-for-byte reproducible for a given seed — traces are
// assertable artifacts in tests, not just debugging aids. Spans that belong
// to one logical request (a syscall and the cache, journal, block, and
// device work it fans out into) share a request ID allocated at the syscall
// boundary and propagated through ioctx, so exporters can reassemble the
// cross-layer tree the paper argues single-level schedulers cannot see.
//
// When disabled (the default), every instrumentation point reduces to one
// branch on a boolean and performs no allocation; kernels built without an
// explicit tracer behave identically to untraced ones.
package trace

import (
	"time"

	"splitio/internal/causes"
	"splitio/internal/sim"
)

// ReqID links the spans of one logical request across layers. ID 0 means
// "untracked" (tracing disabled, or work with no originating request).
type ReqID uint64

// Layer identifies the stack layer that emitted an event.
type Layer uint8

// Layers, top to bottom of the stack.
const (
	LayerSyscall Layer = iota
	LayerCache
	LayerFS
	LayerBlock
	LayerDevice
	numLayers
)

var layerNames = [numLayers]string{"syscall", "cache", "fs", "block", "device"}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "unknown"
}

// Layers lists every layer in stack order (for iteration in exporters and
// assertions).
func Layers() []Layer {
	return []Layer{LayerSyscall, LayerCache, LayerFS, LayerBlock, LayerDevice}
}

// Op names. Kept as untyped string constants so call sites stay allocation
// free (constant strings) and exporters need no translation table.
const (
	// Syscall layer.
	OpRead   = "read"
	OpWrite  = "write"
	OpFsync  = "fsync"
	OpCreate = "creat"
	OpMkdir  = "mkdir"
	OpUnlink = "unlink"

	// Cache layer.
	OpDirty      = "dirty"
	OpBufferFree = "buffer-free"
	OpThrottle   = "throttle"
	OpWriteback  = "writeback"

	// File-system layer.
	OpFlushData    = "flush-data"
	OpAlloc        = "alloc"
	OpOrderedFlush = "ordered-flush"
	OpTxnCommit    = "txn-commit"
	// OpCommitWait spans the time an fsync spends blocked on a journal
	// commit. Its Causes are the awaited transaction's cause set and Txn its
	// id, so latency attribution can charge the wait to journal entanglement
	// without reconstructing the commit tree.
	OpCommitWait = "commit-wait"

	// Block layer.
	OpQueue = "queue"

	// Device layer.
	OpService  = "service"
	OpPosition = "position"
	OpTransfer = "transfer"
	// OpGCWait spans the part of a request's device service spent waiting
	// on a die held by background garbage collection (the FTL SSD model).
	// It is detection metadata for the attr inversion detector: the wait is
	// already inside the service span, so attribution must not add it to a
	// latency category.
	OpGCWait = "gc-wait"
	// OpGCMigrate and OpGCErase are background GC activity spans the FTL
	// SSD emits itself under the GC pseudo-PID (4): valid-page migration
	// out of a victim block, then the block erase.
	OpGCMigrate = "gc-migrate"
	OpGCErase   = "gc-erase"

	// Crash checker (post-hoc analysis over the fault plane's log).
	OpCrashImage = "crash-image"
	OpRecover    = "recover"
)

// Flag is a bitmask of request properties mirrored from the block layer.
type Flag uint8

// Flags.
const (
	FlagSync Flag = 1 << iota
	FlagJournal
	FlagMeta
	FlagBarrier
	FlagWrite
	FlagRead
)

// Has reports whether every bit of mask is set.
func (f Flag) Has(mask Flag) bool { return f&mask == mask }

func (f Flag) String() string {
	s := ""
	add := func(bit Flag, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagSync, "sync")
	add(FlagJournal, "journal")
	add(FlagMeta, "meta")
	add(FlagBarrier, "barrier")
	add(FlagWrite, "write")
	add(FlagRead, "read")
	if s == "" {
		return "-"
	}
	return s
}

// Event is one recorded span (Start < End) or instant (Start == End). Fields
// that do not apply to a layer are left zero. Events are plain values:
// recording one does not allocate (a sink may).
type Event struct {
	Layer Layer
	// Op is the operation name (one of the Op constants).
	Op string
	// Label carries layer-specific context, e.g. the elevator name for
	// block-layer spans.
	Label string
	// Req links this event to the logical request that caused it (0 = none).
	Req ReqID
	// PID is the acting process (the submitter — possibly a kernel proxy
	// such as pdflush or jbd, which is exactly what Causes disambiguates).
	PID causes.PID
	// Causes is the cross-layer cause set, when known.
	Causes causes.Set
	// Start and End bound the span in virtual time.
	Start sim.Time
	End   sim.Time
	// Ino is the file the event concerns (0 for journal/none).
	Ino int64
	// Page is a file page index (cache-layer events).
	Page int64
	// LBA and Blocks describe block/device-layer extents.
	LBA    int64
	Blocks int
	// Bytes is the syscall byte count.
	Bytes int64
	// Prio is the acting process's I/O priority (0 highest .. 7 lowest;
	// 0 also for events whose layer carries no priority).
	Prio int
	// Depth is a queue-state sample: the block-layer queue depth at
	// submission for queue spans, the cache's dirty-page count for
	// writeback spans (0 elsewhere).
	Depth int64
	// Txn is the journal transaction the event serves (commit spans,
	// commit waits, and the ordered-mode data flushes a commit forces;
	// 0 otherwise).
	Txn   int64
	Flags Flag
}

// Dur returns the span duration.
func (e Event) Dur() time.Duration { return e.End.Sub(e.Start) }

// Instant reports whether the event is a point in time rather than a span.
func (e Event) Instant() bool { return e.Start == e.End }

// Sink consumes the event stream as it is recorded, in emission order.
// Consume is called synchronously from Record on the simulation's single
// thread, so sinks need no locking but must not block.
type Sink interface {
	Consume(ev Event)
}

// Tracer hands recorded events to its sinks and keeps none. The zero value
// is a valid, permanently disabled tracer. A Tracer is not safe for
// concurrent use; the simulation is single-threaded, so instrumentation
// points never race.
type Tracer struct {
	enabled bool
	nop     bool
	nextReq uint64
	sinks   []Sink
}

// Nop is the shared disabled tracer that layers use before a kernel wires a
// real one in. It can never be enabled, so sharing it across kernels and
// tests is safe.
var Nop = &Tracer{nop: true}

// New returns a disabled tracer. Call Enable to start recording.
func New() *Tracer { return &Tracer{} }

// Enable turns recording on. Enabling the shared Nop tracer panics: it would
// silently leak events across every kernel that defaulted to it.
func (t *Tracer) Enable() {
	if t.nop {
		panic("trace: Enable on the shared Nop tracer")
	}
	t.enabled = true
}

// Enabled reports whether the tracer records events. Instrumentation points
// must check it before building an Event so the disabled hot path stays a
// single branch.
func (t *Tracer) Enabled() bool { return t.enabled }

// NextReq allocates a request ID. When disabled it returns 0 without
// consuming an ID, so enabling tracing mid-run yields the same ID sequence a
// freshly traced run would produce from that point.
func (t *Tracer) NextReq() ReqID {
	if !t.enabled {
		return 0
	}
	t.nextReq++
	return ReqID(t.nextReq)
}

// Attach registers a sink that will receive every subsequently recorded
// event. Sinks are invoked in attachment order.
func (t *Tracer) Attach(s Sink) {
	if t.nop {
		panic("trace: Attach on the shared Nop tracer")
	}
	t.sinks = append(t.sinks, s)
}

// Detach removes a previously attached sink (no-op if absent), so one sink
// instance can observe exactly one kernel's run on a shared tracer.
func (t *Tracer) Detach(s Sink) {
	for i, have := range t.sinks {
		if have == s {
			t.sinks = append(t.sinks[:i], t.sinks[i+1:]...)
			return
		}
	}
}

// Record feeds ev to the attached sinks. No-op when disabled.
func (t *Tracer) Record(ev Event) {
	if !t.enabled {
		return
	}
	for _, s := range t.sinks {
		s.Consume(ev)
	}
}

// ByReq groups events by request ID, dropping untracked (ID 0) events. Each
// group preserves emission order.
func ByReq(events []Event) map[ReqID][]Event {
	m := make(map[ReqID][]Event)
	for _, ev := range events {
		if ev.Req == 0 {
			continue
		}
		m[ev.Req] = append(m[ev.Req], ev)
	}
	return m
}
