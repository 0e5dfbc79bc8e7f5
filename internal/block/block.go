// Package block implements the simulated block layer: a request structure
// carrying cross-layer cause tags, a dispatcher process that feeds one
// request at a time to the device, and a pluggable Elevator interface that
// is exactly the block-level hook surface of both the traditional Linux
// framework and the split framework (requests added / dispatched /
// completed). Block-level schedulers (CFQ, Block-Deadline) and the block
// halves of split schedulers (AFQ, Split-Deadline, Split-Token) plug in
// here.
package block

import (
	"time"

	"splitio/internal/causes"
	"splitio/internal/device"
	"splitio/internal/perf"
	"splitio/internal/sim"
	"splitio/internal/trace"
)

// Class is the I/O class visible at the block level (CFQ's notion).
type Class int

// I/O classes.
const (
	ClassBE   Class = iota // best effort (default)
	ClassIdle              // only served when the disk is otherwise idle
)

// Request is one block-level I/O request.
type Request struct {
	Op     device.Op
	LBA    int64 // in 4 KiB blocks
	Blocks int

	// Causes identifies the processes responsible for this I/O (split
	// framework tagging). Block-only schedulers must not look at it; they
	// see only Submitter/Prio/Class, mirroring what Linux gives them.
	Causes causes.Set
	// Submitter is the process that submitted the request to the block
	// layer (possibly a proxy such as the writeback or journal task).
	Submitter causes.PID
	// Prio and Class are the submitter's I/O priority and class, which is
	// all a block-level scheduler can see.
	Prio  int
	Class Class

	// Sync marks requests some process is actively waiting on (reads and
	// fsync-driven writes).
	Sync bool
	// Journal marks journal-transaction writes.
	Journal bool
	// Barrier marks sync-commit records that must flush the device cache.
	Barrier bool
	// Meta marks file-system metadata I/O.
	Meta bool
	// FileID is the inode number the request belongs to (0 for journal).
	FileID int64
	// Pages lists the file page indices a data write covers, letting split
	// schedulers revise their memory-level cost estimates per page when the
	// true on-disk cost is known (paper §3.2). Nil for reads and journal I/O.
	Pages []int64
	// TxnID is the journal transaction the request serves: the descriptor
	// and commit record of a committing transaction, plus the ordered-mode
	// data flushes its commit forces (0 otherwise). Schedulers must not use
	// it; the fault plane needs it to tie crash images to transactions.
	TxnID int64

	// Deadline is an absolute deadline, or zero for none (Block-Deadline
	// fills this from per-process settings).
	Deadline sim.Time

	// Req is the trace request ID of the operation this request descends
	// from (0 when tracing is disabled). Schedulers must not use it: it is
	// observability metadata, not scheduling input.
	Req trace.ReqID

	// Queued and Start record when the request entered the block layer and
	// when dispatch began; Service is the device time consumed; QDepth is
	// the queue depth at submission (including this request). They are
	// filled by the layer.
	Queued  sim.Time
	Start   sim.Time
	Service time.Duration
	QDepth  int

	done *sim.Completion
}

// Bytes returns the request size in bytes.
func (r *Request) Bytes() int64 { return int64(r.Blocks) * device.BlockSize }

// Done returns the request's completion (valid after Submit).
func (r *Request) Done() *sim.Completion { return r.done }

// Elevator is the block-level scheduler hook surface. Add is called when a
// request enters the block layer; Next is called by the dispatcher whenever
// the device is free (returning nil leaves the device idle until the next
// Kick, add, or completion); Completed is called when the device finishes a
// request.
type Elevator interface {
	Name() string
	Add(r *Request)
	Next(now sim.Time) *Request
	Completed(r *Request)
}

// Stats aggregates block-layer activity.
type Stats struct {
	Requests    int64
	Dispatched  int64
	BlocksRead  int64
	BlocksWrite int64
	BusyTime    time.Duration
}

// Hooks receives framework-level notifications around the elevator. Split
// schedulers use these for accounting revision; nil hooks are skipped.
type Hooks interface {
	BlockAdded(r *Request)
	BlockDispatched(r *Request)
	BlockCompleted(r *Request)
}

// Layer is the block layer: elevator + dispatcher + device.
type Layer struct {
	env   *sim.Env
	disk  device.Disk
	elv   Elevator
	hooks Hooks
	tr    *trace.Tracer
	work  *sim.WaitQueue
	busy  bool
	depth int
	stats Stats
	// QueueDepth>1 is not modeled; the dispatcher issues one request at a
	// time, matching the paper's single-spindle evaluation.

	// Run-to-completion dispatcher state. The dispatcher issues one request
	// at a time, so the in-flight request and
	// its captured trace breakdown live in the layer; the two callbacks are
	// allocated once here so the steady-state dispatch loop never allocates.
	inflight      *Request
	inflightSvc   time.Duration
	inflightPos   time.Duration
	inflightXfer  time.Duration
	inflightStall time.Duration
	inflightTrcd  bool
	completeFn    func()
	resumeFn      func(sig bool)
}

// NewLayer creates a block layer over disk using elv and starts its
// dispatcher, a run-to-completion handler on the event loop.
func NewLayer(env *sim.Env, disk device.Disk, elv Elevator) *Layer {
	l := &Layer{env: env, disk: disk, elv: elv, tr: trace.Nop, work: sim.NewWaitQueue(env)}
	l.completeFn = l.complete
	l.resumeFn = func(sig bool) { l.dispatchStep() }
	// The first dispatch probe is a t=0 startup event scheduled in
	// construction order, which fixes the kernel's seq numbering; the
	// schedule goldens pin it. It parks on l.work.
	env.Schedule(0, l.dispatchStep)
	return l
}

// SetHooks installs framework hooks (may be nil).
func (l *Layer) SetHooks(h Hooks) { l.hooks = h }

// SetTracer installs the kernel's tracer (nil restores the disabled Nop).
func (l *Layer) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		tr = trace.Nop
	}
	l.tr = tr
}

// QueueDepth returns the number of requests inside the block layer (queued
// or being served).
func (l *Layer) QueueDepth() int { return l.depth }

// Elevator returns the installed elevator.
func (l *Layer) Elevator() Elevator { return l.elv }

// Disk returns the underlying device.
func (l *Layer) Disk() device.Disk { return l.disk }

// Stats returns a snapshot of the layer's counters.
func (l *Layer) Stats() Stats { return l.stats }

// Submit adds a request to the block layer and returns its completion. It
// is the block bucket's profiling probe (the synchronous queue-insert path,
// including the elevator's Add).
func (l *Layer) Submit(r *Request) *sim.Completion {
	perf.Count(perf.BucketBlock)
	if r.Blocks <= 0 {
		r.Blocks = 1
	}
	r.done = sim.NewCompletion(l.env)
	r.Queued = l.env.Now()
	l.stats.Requests++
	l.depth++
	r.QDepth = l.depth
	l.elv.Add(r)
	if l.hooks != nil {
		l.hooks.BlockAdded(r)
	}
	l.Kick()
	return r.done
}

// traceRequest emits the block- and device-layer spans of one completed
// request: the queue span (submission to dispatch, labeled with the
// elevator), a gc-wait span when the disk model reports that part of the
// service was spent behind its garbage collector, and the device service,
// split into positioning and transfer when the disk model reports a
// breakdown. The gc-wait span overlaps the service span (the stall is part
// of the service) — it is detection metadata for attr, not a latency
// category of its own.
func (l *Layer) traceRequest(r *Request, pos, xfer, gcStall time.Duration) {
	flags := requestFlags(r)
	l.tr.Record(trace.Event{
		Layer: trace.LayerBlock, Op: trace.OpQueue, Label: l.elv.Name(),
		Req: r.Req, PID: r.Submitter, Causes: r.Causes, Prio: r.Prio,
		Start: r.Queued, End: r.Start, Depth: int64(r.QDepth),
		Ino: r.FileID, LBA: r.LBA, Blocks: r.Blocks, Flags: flags,
	})
	if gcStall > 0 {
		l.tr.Record(trace.Event{
			Layer: trace.LayerDevice, Op: trace.OpGCWait, Label: l.disk.Name(),
			Req: r.Req, PID: r.Submitter, Causes: r.Causes, Prio: r.Prio,
			Start: r.Start, End: r.Start.Add(gcStall),
			Ino: r.FileID, LBA: r.LBA, Blocks: r.Blocks, Flags: flags,
		})
	}
	dev := trace.Event{
		Layer: trace.LayerDevice, Op: trace.OpService, Label: l.disk.Name(),
		Req: r.Req, PID: r.Submitter, Causes: r.Causes, Prio: r.Prio,
		Start: r.Start, End: r.Start.Add(r.Service),
		Ino: r.FileID, LBA: r.LBA, Blocks: r.Blocks, Flags: flags,
	}
	if pos+xfer > 0 {
		if pos > 0 {
			seek := dev
			seek.Op = trace.OpPosition
			seek.End = dev.Start.Add(pos)
			l.tr.Record(seek)
		}
		dev.Op = trace.OpTransfer
		dev.Start = dev.Start.Add(pos)
		dev.End = dev.Start.Add(xfer)
	}
	l.tr.Record(dev)
}

func requestFlags(r *Request) trace.Flag {
	var f trace.Flag
	if r.Op == device.Read {
		f |= trace.FlagRead
	} else {
		f |= trace.FlagWrite
	}
	if r.Sync {
		f |= trace.FlagSync
	}
	if r.Journal {
		f |= trace.FlagJournal
	}
	if r.Meta {
		f |= trace.FlagMeta
	}
	if r.Barrier {
		f |= trace.FlagBarrier
	}
	return f
}

// Kick wakes the dispatcher; elevators call this after internal timers
// (e.g. CFQ idle-window expiry) make a request eligible.
func (l *Layer) Kick() {
	if !l.busy {
		l.work.Signal()
	}
}

// dispatchStep probes the elevator and, if a request is eligible, starts
// serving it. Every request the module simulates flows through this body;
// it runs to completion on the event loop and must stay allocation-free.
//
//splitlint:hot
func (l *Layer) dispatchStep() {
	// The elevator's pick and the disk model's service-time computation
	// are the sched and device buckets' profiling probes.
	perf.Count(perf.BucketSched)
	r := l.elv.Next(l.env.Now())
	if r == nil {
		l.work.WaitFn(l.resumeFn)
		return
	}
	l.busy = true
	r.Start = l.env.Now()
	l.stats.Dispatched++
	if l.hooks != nil {
		l.hooks.BlockDispatched(r)
	}
	if an, ok := l.disk.(device.Annotator); ok {
		// Device wrappers that model durability (the fault plane) need
		// the request's semantic tags; raw models ignore them.
		an.Annotate(device.RequestInfo{
			Sync: r.Sync, Journal: r.Journal, Meta: r.Meta, Barrier: r.Barrier,
			FileID: r.FileID, TxnID: r.TxnID, Pages: r.Pages,
		})
	}
	perf.Count(perf.BucketDevice)
	svc := l.disk.ServiceTime(r.Op, r.LBA, r.Blocks, time.Duration(l.env.Now()), r.Barrier)
	l.inflight = r
	l.inflightSvc = svc
	l.inflightPos, l.inflightXfer, l.inflightStall = 0, 0, 0
	l.inflightTrcd = l.tr.Enabled()
	if l.inflightTrcd {
		// Capture the positioning/transfer split and GC stall now: the
		// disk model's per-request state is overwritten by the next
		// ServiceTime call.
		if bd, ok := l.disk.(device.Breakdowner); ok {
			l.inflightPos, l.inflightXfer = bd.Breakdown()
		}
		if gs, ok := l.disk.(device.GCStaller); ok {
			l.inflightStall = gs.GCStall()
		}
	}
	l.env.Schedule(svc, l.completeFn)
}

// complete is the device-completion handler: it retires the in-flight
// request and immediately probes the elevator again, all within one event.
//
//splitlint:hot
func (l *Layer) complete() {
	r, svc := l.inflight, l.inflightSvc
	l.inflight = nil
	r.Service = svc
	l.stats.BusyTime += svc
	if r.Op == device.Read {
		l.stats.BlocksRead += int64(r.Blocks)
	} else {
		l.stats.BlocksWrite += int64(r.Blocks)
	}
	l.busy = false
	l.depth--
	l.elv.Completed(r)
	if l.hooks != nil {
		l.hooks.BlockCompleted(r)
	}
	if l.inflightTrcd {
		l.traceRequest(r, l.inflightPos, l.inflightXfer, l.inflightStall)
	}
	r.done.Complete()
	l.dispatchStep()
}

// FIFO is the no-op elevator: requests are dispatched in arrival order with
// no reordering, no idling, and no accounting. It doubles as the
// framework-overhead baseline (Fig 9).
type FIFO struct {
	q []*Request
}

// NewFIFO returns an empty FIFO elevator.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements Elevator.
func (f *FIFO) Name() string { return "noop" }

// Add implements Elevator.
func (f *FIFO) Add(r *Request) { f.q = append(f.q, r) }

// Next implements Elevator.
func (f *FIFO) Next(now sim.Time) *Request {
	if len(f.q) == 0 {
		return nil
	}
	r := f.q[0]
	copy(f.q, f.q[1:])
	f.q = f.q[:len(f.q)-1]
	return r
}

// Completed implements Elevator.
func (f *FIFO) Completed(r *Request) {}

// Len returns the number of queued requests.
func (f *FIFO) Len() int { return len(f.q) }
